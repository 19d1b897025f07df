//===- tools/crd/RecordCmd.cpp - crd record: live ingestion stress -----------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `crd record --stress`: real producer threads hammer the live ingestion
/// path (src/ingest) with a deterministic synthetic dictionary workload —
/// per-thread SPSC rings, collector merge, live detection and/or wire
/// recording — and report aggregate throughput, drops, and races. With
/// --verify-replay the recorded wire stream is re-analyzed and the races
/// must be bit-identical to what live detection saw, which is the
/// ingestion determinism contract (docs/ingestion.md).
///
//===----------------------------------------------------------------------===//

#include "CliInternal.h"

#include "ingest/Session.h"
#include "support/Metrics.h"
#include "wire/EventSource.h"
#include "wire/StreamPipeline.h"
#include "wire/WireWriter.h"

#include <chrono>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

using namespace crd;
using namespace crd::cli;
using namespace crd::cli::internal;

namespace {

const char RecordHelp[] =
    "usage: crd record --stress [options]\n"
    "\n"
    "Live multi-producer ingestion stress: N real threads record a\n"
    "deterministic synthetic dictionary workload through per-thread\n"
    "lock-free SPSC rings; a collector merges the streams into one\n"
    "deterministic order feeding live detection and/or a binary wire\n"
    "file. Reports aggregate events/sec, per-producer drops, and races.\n"
    "Embedding the producer API directly is documented in\n"
    "docs/ingestion.md; this verb only drives the synthetic stress.\n"
    "Exit code 1 = replay verification failed, 2 = usage error; races\n"
    "found by live detection are reported, not judged.\n"
    "\n"
    "options:\n"
    "  --stress             required: run the synthetic stress workload\n"
    "  --producers=N        producer threads (default 4)\n"
    "  --events=N           events recorded per producer (default 100000)\n"
    "  --ring=N             per-producer ring capacity, rounded up to a\n"
    "                       power of two (default 1024)\n"
    "  --policy=block|drop  backpressure: block = lossless, drop =\n"
    "                       DropNewest with counted drops (default block)\n"
    "  --detector=seq|none  live backend (default seq; none = drain\n"
    "                       without detection)\n"
    "  --batch=N            events per collector batch (default 4096)\n"
    "  --objects=N          shared objects all producers touch (default 8;\n"
    "                       0 = one private object per producer, race-free)\n"
    "  --keys=N             key space per object (default 64)\n"
    "  --lock-every=N       bracket every N-event window in a shared\n"
    "                       lock's acquire/release (default 64; 0 = no\n"
    "                       sync edges)\n"
    "  --out=FILE           also record the merged stream as a binary\n"
    "                       wire trace\n"
    "  --verify-replay      re-run the recorded wire stream through a\n"
    "                       fresh detector; races must be bit-identical\n"
    "  --json[=FILE]        ingest metrics JSON (schema: docs/ingestion.md;\n"
    "                       stdout when FILE is omitted)\n"
    "  --chrome-trace=FILE  collector-round chrome://tracing timeline\n";

struct StressConfig {
  unsigned Producers = 4;
  uint64_t EventsPerProducer = 100000;
  size_t Ring = 1024;
  ingest::BackpressurePolicy Policy = ingest::BackpressurePolicy::Block;
  unsigned Objects = 8;
  unsigned Keys = 64;
  unsigned LockEvery = 64;
};

uint64_t xorshift(uint64_t &S) {
  S ^= S << 13;
  S ^= S >> 7;
  S ^= S << 17;
  return S;
}

/// One producer's fixed script: --events records, ~70% put / 30% get on
/// the shared (or private) dictionary objects, each --lock-every window
/// bracketed by a shared lock so the merged trace has cross-thread HB
/// edges. Fully determined by the thread id — reruns record the same
/// per-producer sequence, only the cross-producer merge varies.
void producerBody(ingest::Recorder R, const StressConfig &C, Symbol Put,
                  Symbol Get) {
  const uint32_t Tid = R.thread().index();
  uint64_t S = 0x9e3779b97f4a7c15ull * (Tid + 1) | 1;
  uint32_t WindowLock = 0;
  for (uint64_t I = 0; I != C.EventsPerProducer; ++I) {
    if (C.LockEvery >= 2) {
      uint64_t Phase = I % C.LockEvery;
      if (Phase == 0) {
        WindowLock = static_cast<uint32_t>(xorshift(S) % 4);
        R.acquire(LockId(WindowLock));
        continue;
      }
      if (Phase == C.LockEvery - 1) {
        R.release(LockId(WindowLock));
        continue;
      }
    }
    uint64_t H = xorshift(S);
    ObjectId Obj = C.Objects != 0
                       ? ObjectId(static_cast<uint32_t>(H % C.Objects))
                       : ObjectId(Tid);
    Value Key = Value::integer(static_cast<int64_t>((H >> 8) % C.Keys));
    if ((H >> 32) % 10 < 7) {
      Value Vals[3] = {Key, Value::integer(static_cast<int64_t>(H >> 40)),
                       Value::nil()};
      // View over the stack array, copied once to detach into the
      // action's inline storage — the record fast path never allocates.
      Action View(Obj, Put, Vals, /*NArgs=*/2, /*NRets=*/1);
      Action Owned = View;
      R.record(Event::invoke(R.thread(), std::move(Owned)));
    } else {
      Value Vals[2] = {Key, Value::nil()};
      Action View(Obj, Get, Vals, /*NArgs=*/1, /*NRets=*/1);
      Action Owned = View;
      R.record(Event::invoke(R.thread(), std::move(Owned)));
    }
  }
  R.finish();
}

std::string humanRate(double EventsPerSec) {
  std::ostringstream OS;
  OS << std::fixed << std::setprecision(2);
  if (EventsPerSec >= 1e6)
    OS << EventsPerSec / 1e6 << "M";
  else if (EventsPerSec >= 1e3)
    OS << EventsPerSec / 1e3 << "k";
  else
    OS << EventsPerSec;
  return OS.str();
}

} // namespace

int crd::cli::internal::runRecord(const std::vector<std::string> &Raw,
                                  std::ostream &Out, std::ostream &Err) {
  ParsedArgs Args(joinValueOptions(
      Raw, {"--producers", "--events", "--ring", "--policy", "--detector",
            "--batch", "--objects", "--keys", "--lock-every", "--out",
            "--chrome-trace"}));
  if (Args.Help) {
    Out << RecordHelp;
    return ExitClean;
  }
  if (auto Bad = Args.unknownOption(
          {"stress", "producers", "events", "ring", "policy", "detector",
           "batch", "objects", "keys", "lock-every", "out", "verify-replay",
           "json", "chrome-trace"})) {
    Err << "error: unknown option --" << *Bad << "\n" << RecordHelp;
    return ExitUsage;
  }
  if (!Args.Positional.empty()) {
    Err << "error: crd record takes no positional operands\n" << RecordHelp;
    return ExitUsage;
  }
  if (!Args.option("stress"))
    return rejectUnsupported(
        Err, "record", "running without --stress",
        "this verb currently only drives the synthetic stress workload; "
        "pass --stress (the embedding API is documented in "
        "docs/ingestion.md)");

  StressConfig C;
  auto CountOpt = [&](const char *Name, uint64_t &Slot, bool AllowZero,
                      uint64_t Max) -> bool {
    if (auto V = Args.option(Name)) {
      auto N = parseCount(*V);
      if (!N || (!AllowZero && *N == 0) || *N > Max) {
        Err << "error: --" << Name << " expects a "
            << (AllowZero ? "non-negative" : "positive") << " integer";
        if (Max != ~0ull)
          Err << " <= " << Max;
        Err << "\n";
        return false;
      }
      Slot = *N;
    }
    return true;
  };
  uint64_t Producers = C.Producers, Ring = C.Ring, Objects = C.Objects,
           Keys = C.Keys, LockEvery = C.LockEvery;
  if (!CountOpt("producers", Producers, false, 4096) ||
      !CountOpt("events", C.EventsPerProducer, false, ~0ull) ||
      !CountOpt("ring", Ring, false, size_t(1) << 30) ||
      !CountOpt("objects", Objects, true, 1u << 20) ||
      !CountOpt("keys", Keys, false, 1u << 20) ||
      !CountOpt("lock-every", LockEvery, true, 1u << 20))
    return ExitUsage;
  C.Producers = static_cast<unsigned>(Producers);
  C.Ring = static_cast<size_t>(Ring);
  C.Objects = static_cast<unsigned>(Objects);
  C.Keys = static_cast<unsigned>(Keys);
  C.LockEvery = static_cast<unsigned>(LockEvery);

  std::string PolicyName = Args.option("policy").value_or("block");
  if (PolicyName == "block")
    C.Policy = ingest::BackpressurePolicy::Block;
  else if (PolicyName == "drop")
    C.Policy = ingest::BackpressurePolicy::DropNewest;
  else {
    Err << "error: --policy expects 'block' or 'drop'\n";
    return ExitUsage;
  }

  std::string DetectorName = Args.option("detector").value_or("seq");
  if (DetectorName != "seq" && DetectorName != "none") {
    Err << "error: unknown detector '" << DetectorName
        << "' (seq or none)\n";
    return ExitUsage;
  }
  bool Detect = DetectorName == "seq";
  size_t Batch = 4096;
  if (auto B = Args.option("batch")) {
    auto N = parseCount(*B);
    if (!N || *N == 0) {
      Err << "error: --batch expects a positive integer\n";
      return ExitUsage;
    }
    Batch = static_cast<size_t>(*N);
  }

  std::string OutPath = Args.option("out").value_or("");
  bool VerifyReplay = Args.option("verify-replay").has_value();
  if (VerifyReplay && !Detect)
    return rejectUnsupported(
        Err, "record", "--verify-replay with --detector=none",
        "replay verification compares the recorded stream against live "
        "findings; run with --detector=seq");
  std::string ChromePath = Args.option("chrome-trace").value_or("");

  // Pre-intern the method symbols so producer threads never contend on
  // the intern table from the record loop.
  Symbol Put = symbol("put");
  Symbol Get = symbol("get");
  int Exit = ExitClean;
  std::unique_ptr<TranslatedRep> Rep;
  if (Detect || VerifyReplay) {
    Rep = loadProvider("", Err, Exit);
    if (!Rep)
      return Exit;
  }

  std::optional<wire::StreamPipeline> Pipeline;
  // The pipeline streams its races and keeps none; --verify-replay
  // collects the live ones here to compare with the replay's.
  std::vector<CommutativityRace> LiveRaces;
  if (Detect) {
    Pipeline.emplace();
    Pipeline->setDefaultProvider(Rep.get());
    if (VerifyReplay)
      Pipeline->setRaceCallback(
          [&LiveRaces](const CommutativityRace &R) { LiveRaces.push_back(R); });
  }
  // The wire sink encodes into memory; --out persists the bytes and
  // --verify-replay decodes them back. Sized by the stress: ~4 bytes per
  // event after delta/varint encoding.
  bool NeedWire = VerifyReplay || !OutPath.empty();
  std::ostringstream WireBuf;
  std::optional<wire::WireWriter> Writer;
  if (NeedWire)
    Writer.emplace(WireBuf);

  ingest::SessionOptions SOpts;
  SOpts.RingCapacity = C.Ring;
  SOpts.Policy = C.Policy;
  SOpts.BatchCapacity = Batch;
  SOpts.TraceRounds = !ChromePath.empty();
  ingest::Session Session(SOpts);
  if (Pipeline)
    Session.setPipeline(&*Pipeline);
  if (Writer)
    Session.setWireWriter(&*Writer);

  // Attach in thread-id order before any producer starts, so the
  // collector's registration-order merge is reproducible.
  std::vector<ingest::Recorder> Recorders;
  Recorders.reserve(C.Producers);
  for (unsigned T = 0; T != C.Producers; ++T)
    Recorders.push_back(Session.attach(ThreadId(T)));

  Session.start();
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  Threads.reserve(C.Producers);
  for (unsigned T = 0; T != C.Producers; ++T)
    Threads.emplace_back(producerBody, std::move(Recorders[T]), C, Put, Get);
  for (std::thread &T : Threads)
    T.join();
  Session.stop();
  auto T1 = std::chrono::steady_clock::now();
  if (Pipeline)
    Pipeline->finish();
  if (Writer)
    Writer->finish();

  ingest::IngestMetrics M = Session.metricsSnapshot();
  uint64_t Recorded = 0;
  for (const ingest::ProducerMetricsSnapshot &P : M.PerProducer)
    Recorded += P.Recorded;
  uint64_t Produced = Recorded + M.DropsTotal;
  double Seconds =
      std::chrono::duration<double>(T1 - T0).count();
  double Rate = Seconds > 0 ? static_cast<double>(Produced) / Seconds : 0.0;

  Out << "recorded " << Recorded << " events from " << C.Producers
      << " producers in " << std::fixed << std::setprecision(3) << Seconds
      << " s (" << humanRate(Rate) << " events/s aggregate)\n";
  Out << "dropped " << M.DropsTotal << " (policy: " << PolicyName
      << "), collected " << M.EventsCollected << ", lost "
      << (Recorded - M.EventsCollected) << "\n";
  if (Pipeline) {
    wire::StreamSummary Sum = Pipeline->summary();
    Out << "races: " << Sum.Races << " (" << Sum.DistinctRacyObjects
        << " distinct objects, " << DetectorName << " backend)\n";
  }

  if (!OutPath.empty()) {
    std::ofstream OutFile(OutPath, std::ios::binary);
    OutFile << WireBuf.str();
    if (!OutFile) {
      Err << "error: cannot write wire trace '" << OutPath << "'\n";
      return ExitUsage;
    }
    Out << "wrote " << OutPath << ": " << Writer->eventsWritten()
        << " events, " << Writer->bytesWritten() << " bytes\n";
  }

  if (auto Json = Args.option("json")) {
    if (Json->empty()) {
      Session.writeMetricsJson(Out);
    } else {
      std::ofstream JsonFile(*Json);
      Session.writeMetricsJson(JsonFile);
      if (!JsonFile) {
        Err << "error: cannot write metrics JSON '" << *Json << "'\n";
        return ExitUsage;
      }
      Out << "wrote " << *Json << "\n";
    }
  }

  if (!ChromePath.empty()) {
    std::ofstream TraceFile(ChromePath);
    ingest::writeIngestChromeTrace(TraceFile, M);
    if (!TraceFile) {
      Err << "error: cannot write chrome trace file '" << ChromePath << "'\n";
      return ExitUsage;
    }
    Err << "wrote " << ChromePath << ": " << M.Spans.size()
        << " collector round spans\n";
  }

  if (VerifyReplay) {
    // The determinism contract: the wire file carries the exact order
    // live detection consumed, so a fresh pipeline over it must report
    // bit-identical races (field-for-field, not just the same count).
    std::istringstream In(WireBuf.str());
    DiagnosticEngine Diags;
    wire::BinaryStreamSource Src(In, Diags);
    wire::StreamPipeline Replayed;
    Replayed.setDefaultProvider(Rep.get());
    std::vector<CommutativityRace> ReplayedRaces;
    Replayed.setRaceCallback([&ReplayedRaces](const CommutativityRace &R) {
      ReplayedRaces.push_back(R);
    });
    wire::StreamSummary Sum = Replayed.run(Src);
    if (Src.failed()) {
      Err << "replay: recorded wire stream is malformed:\n"
          << Diags.toString();
      return ExitFindings;
    }
    bool EventsMatch = Sum.Events == M.EventsCollected;
    bool RacesMatch = ReplayedRaces == LiveRaces;
    if (EventsMatch && RacesMatch) {
      Out << "replay identical: yes (" << Sum.Events << " events, "
          << Sum.Races << " races)\n";
    } else {
      Out << "replay identical: NO — live " << LiveRaces.size()
          << " races / " << M.EventsCollected << " events vs replay "
          << Sum.Races << " races / " << Sum.Events << " events\n";
      return ExitFindings;
    }
  }

  return ExitClean;
}
