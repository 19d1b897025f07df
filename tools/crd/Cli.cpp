//===- tools/crd/Cli.cpp - The unified crd command-line tool -----------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "Cli.h"
#include "CliInternal.h"

#include "detect/AtomicityChecker.h"
#include "detect/CommutativityDetector.h"
#include "detect/FastTrack.h"
#include "detect/Summary.h"
#include "serve/Protocol.h"
#include "spec/Builtins.h"
#include "spec/SpecParser.h"
#include "trace/TraceStats.h"
#include "translate/Translator.h"
#include "support/TextRender.h"
#include "wire/EventSource.h"
#include "wire/StreamPipeline.h"
#include "wire/WireReader.h"
#include "wire/WireWriter.h"

#include <fstream>
#include <iomanip>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_set>

using namespace crd;
using namespace crd::cli;
using namespace crd::cli::internal;

namespace {

//===----------------------------------------------------------------------===//
// crd convert
//===----------------------------------------------------------------------===//

const char ConvertHelp[] =
    "usage: crd convert [options] <input> <output>\n"
    "\n"
    "Converts a trace between the textual and binary wire formats. The\n"
    "input format is sniffed from the file magic; the output format is\n"
    "chosen by --to, else by the output extension (.crdb/.wire = binary),\n"
    "else as the opposite of the input format. Conversion is streaming:\n"
    "no Trace is materialized in either direction.\n"
    "\n"
    "options:\n"
    "  --to=text|binary   output format\n"
    "  --chunk=N          events per binary chunk (default 4096)\n";

int runConvert(const ParsedArgs &Args, std::ostream &Out, std::ostream &Err) {
  if (Args.Help) {
    Out << ConvertHelp;
    return ExitClean;
  }
  if (auto Bad = Args.unknownOption({"to", "chunk"})) {
    Err << "error: unknown option --" << *Bad << "\n" << ConvertHelp;
    return ExitUsage;
  }
  if (Args.Positional.size() != 2) {
    Err << ConvertHelp;
    return ExitUsage;
  }
  const std::string &InPath = Args.Positional[0];
  const std::string &OutPath = Args.Positional[1];

  size_t Chunk = wire::DefaultEventsPerChunk;
  if (auto C = Args.option("chunk")) {
    auto N = parseCount(*C);
    if (!N || *N == 0) {
      Err << "error: --chunk expects a positive integer\n";
      return ExitUsage;
    }
    Chunk = static_cast<size_t>(*N);
  }

  bool InputBinary = wire::isWireFile(InPath);
  bool ToBinary;
  if (auto To = Args.option("to")) {
    if (*To == "binary")
      ToBinary = true;
    else if (*To == "text")
      ToBinary = false;
    else {
      Err << "error: --to expects 'text' or 'binary'\n";
      return ExitUsage;
    }
  } else if (OutPath.size() > 5 &&
             (OutPath.rfind(".crdb") == OutPath.size() - 5 ||
              OutPath.rfind(".wire") == OutPath.size() - 5)) {
    ToBinary = true;
  } else {
    ToBinary = !InputBinary;
  }

  DiagnosticEngine Diags;
  auto Source = wire::openEventSource(InPath, Diags);
  if (!Source) {
    Err << Diags.toString();
    return ExitUsage;
  }

  std::ofstream OutFile(OutPath, ToBinary ? std::ios::binary : std::ios::out);
  if (!OutFile) {
    Err << "error: cannot write output file '" << OutPath << "'\n";
    return ExitUsage;
  }

  size_t Events = 0;
  Event E = Event::txBegin(ThreadId(0));
  if (ToBinary) {
    wire::WireWriter Writer(OutFile, Chunk);
    while (Source->next(E)) {
      Writer.append(E);
      ++Events;
    }
    Writer.finish();
    if (!Source->failed())
      Out << "wrote " << OutPath << ": " << Events << " events, "
          << Writer.chunksWritten() << " chunks, " << Writer.bytesWritten()
          << " bytes\n";
  } else {
    size_t Bytes = 0;
    std::ostringstream Line;
    while (Source->next(E)) {
      Line.str("");
      Line << E << '\n';
      OutFile << Line.str();
      Bytes += Line.str().size();
      ++Events;
    }
    if (!Source->failed())
      Out << "wrote " << OutPath << ": " << Events << " events, " << Bytes
          << " bytes\n";
  }
  if (Source->failed()) {
    Err << InPath << ":\n" << Diags.toString();
    return ExitFindings;
  }
  if (!OutFile) {
    Err << "error: I/O error writing '" << OutPath << "'\n";
    return ExitUsage;
  }
  return ExitClean;
}

//===----------------------------------------------------------------------===//
// crd check
//===----------------------------------------------------------------------===//

const char CheckHelp[] =
    "usage: crd check [options] <trace>\n"
    "\n"
    "Streams a trace (text or binary) through a detector and reports\n"
    "findings as they are discovered, plus an end-of-stream summary.\n"
    "Exit code 0 = clean, 1 = findings or malformed trace, 2 = I/O error.\n"
    "\n"
    "options:\n"
    "  --detector=seq|fasttrack|atomicity   backend (default seq)\n"
    "  --spec=FILE        ECL spec for action commutativity (default:\n"
    "                     builtin dictionary, paper Fig 6)\n"
    "  --memo[=off|full]  chunk memoization for binary traces with content\n"
    "                     digests (default off; bare --memo = full). full\n"
    "                     replays detector summaries of repeated chunks\n"
    "                     without decoding them (seq backend). Races are\n"
    "                     identical in both modes\n"
    "  --quiet            suppress per-race lines, print the summary only\n";

int runCheck(const ParsedArgs &Args, std::ostream &Out, std::ostream &Err) {
  if (Args.Help) {
    Out << CheckHelp;
    return ExitClean;
  }
  if (auto Bad = Args.unknownOption({"detector", "spec", "memo", "quiet"})) {
    Err << "error: unknown option --" << *Bad << "\n" << CheckHelp;
    return ExitUsage;
  }
  if (Args.Positional.size() != 1) {
    Err << CheckHelp;
    return ExitUsage;
  }

  wire::PipelineOptions Opts;
  std::string DetectorName = Args.option("detector").value_or("seq");
  if (auto B = serve::parseBackendToken(DetectorName)) {
    Opts.TheBackend = *B;
  } else {
    Err << "error: unknown detector '" << DetectorName << "'\n" << CheckHelp;
    return ExitUsage;
  }
  if (!parseMemoMode(Args, Opts.Memo, Err))
    return ExitUsage;
  bool Quiet = Args.option("quiet").has_value();

  int Exit = ExitClean;
  std::unique_ptr<TranslatedRep> Rep;
  if (Opts.TheBackend != wire::Backend::FastTrack) {
    Rep = loadProvider(Args.option("spec").value_or(""), Err, Exit);
    if (!Rep)
      return Exit;
  }

  DiagnosticEngine Diags;
  auto Source = wire::openEventSource(Args.Positional[0], Diags);
  if (!Source) {
    Err << Diags.toString();
    return ExitUsage;
  }

  wire::StreamPipeline Pipeline(Opts);
  if (Rep)
    Pipeline.setDefaultProvider(Rep.get());
  // Each report line is rendered into one reused buffer and written once.
  std::string Line;
  auto PrintRace = [&Out, &Line](const auto &R) {
    Line.assign("race: ");
    text::append(Line, R);
    Line += '\n';
    Out.write(Line.data(), static_cast<std::streamsize>(Line.size()));
  };
  if (!Quiet) {
    Pipeline.setRaceCallback(PrintRace);
    Pipeline.setMemoryRaceCallback(PrintRace);
    Pipeline.setViolationCallback([&Out](const AtomicityViolation &V) {
      Out << "violation: " << V << '\n';
    });
  }
  Exit = printCheckSummary(Out, Opts.TheBackend, Pipeline.run(*Source));
  if (Source->failed()) {
    Err << Args.Positional[0] << ":\n" << Diags.toString();
    return ExitFindings;
  }
  return Exit;
}

//===----------------------------------------------------------------------===//
// crd stats
//===----------------------------------------------------------------------===//

const char StatsHelp[] =
    "usage: crd stats [options] <trace>\n"
    "\n"
    "Reports the shape of a trace file. For binary traces: per-chunk\n"
    "sizes, event and symbol counts, bytes/event, the compression ratio\n"
    "against the equivalent text rendering, and chunk repetition (total\n"
    "chunks vs distinct content digests, and the fraction of payload\n"
    "bytes that repeat an earlier chunk — what --memo can skip). For\n"
    "text traces: event statistics and the projected binary size.\n"
    "\n"
    "options:\n"
    "  --chunks=N         print at most N per-chunk rows (default 16)\n";

int runStats(const ParsedArgs &Args, std::ostream &Out, std::ostream &Err) {
  if (Args.Help) {
    Out << StatsHelp;
    return ExitClean;
  }
  if (auto Bad = Args.unknownOption({"chunks"})) {
    Err << "error: unknown option --" << *Bad << "\n" << StatsHelp;
    return ExitUsage;
  }
  if (Args.Positional.size() != 1) {
    Err << StatsHelp;
    return ExitUsage;
  }
  const std::string &Path = Args.Positional[0];
  size_t MaxRows = 16;
  if (auto C = Args.option("chunks")) {
    auto N = parseCount(*C);
    if (!N) {
      Err << "error: --chunks expects an integer\n";
      return ExitUsage;
    }
    MaxRows = static_cast<size_t>(*N);
  }

  DiagnosticEngine Diags;
  bool Binary = wire::isWireFile(Path);

  // Both sides of the ratio: stream-decode once, accumulating the text
  // rendering size and the event-kind statistics as we go.
  auto Source = wire::openEventSource(Path, Diags);
  if (!Source) {
    Err << Diags.toString();
    return ExitUsage;
  }
  size_t TextBytes = 0, Events = 0, Actions = 0, MemAccesses = 0, Syncs = 0;
  std::ostringstream Rendered;
  std::ostringstream BinaryProjection;
  wire::WireWriter Projector(BinaryProjection);
  Event E = Event::txBegin(ThreadId(0));
  while (Source->next(E)) {
    Rendered.str("");
    Rendered << E;
    TextBytes += Rendered.str().size() + 1; // + newline.
    ++Events;
    Actions += E.isInvoke();
    MemAccesses += E.isMemoryAccess();
    Syncs += E.isSync();
    Projector.append(E);
  }
  Projector.finish();
  if (Source->failed()) {
    Err << Path << ":\n" << Diags.toString();
    return ExitFindings;
  }
  size_t BinaryBytes = Projector.bytesWritten();

  Out << Path << ": " << (Binary ? "binary" : "text") << " trace\n";
  Out << "  events: " << Events << " (" << Actions << " actions, " << Syncs
      << " sync, " << MemAccesses << " memory)\n";
  std::ostringstream Ratio;
  Ratio << std::fixed << std::setprecision(2);
  if (Events != 0)
    Ratio << "  text bytes: " << TextBytes << " ("
          << static_cast<double>(TextBytes) / static_cast<double>(Events)
          << " bytes/event)\n"
          << "  binary bytes: " << BinaryBytes << " ("
          << static_cast<double>(BinaryBytes) / static_cast<double>(Events)
          << " bytes/event)\n"
          << "  compression ratio (text/binary): "
          << static_cast<double>(TextBytes) /
                 static_cast<double>(BinaryBytes)
          << "x\n";
  Out << Ratio.str();

  if (Binary) {
    std::ifstream In(Path, std::ios::binary);
    auto Info = wire::scanWire(In, Diags);
    if (!Info) {
      Err << Path << ":\n" << Diags.toString();
      return ExitFindings;
    }
    Out << "  chunks: " << Info->Chunks.size() << "\n";
    // Chunk repetition: how much of the payload repeats an earlier chunk
    // byte for byte — what crd check --memo can skip.
    {
      std::unordered_set<uint64_t> Seen;
      uint64_t TotalPayload = 0, RepeatedPayload = 0;
      for (const wire::WireChunkInfo &C : Info->Chunks) {
        TotalPayload += C.PayloadBytes;
        if (!Seen.insert(C.Digest).second)
          RepeatedPayload += C.PayloadBytes;
      }
      std::ostringstream Rep;
      Rep << std::fixed << std::setprecision(1);
      Rep << "  chunk repetition: " << Seen.size() << " distinct digests";
      if (TotalPayload != 0)
        Rep << ", " << 100.0 * static_cast<double>(RepeatedPayload) /
                           static_cast<double>(TotalPayload)
            << "% repeated payload bytes";
      Out << Rep.str() << "\n";
    }
    size_t Rows = std::min(MaxRows, Info->Chunks.size());
    for (size_t I = 0; I != Rows; ++I) {
      const wire::WireChunkInfo &C = Info->Chunks[I];
      Out << "    chunk " << I << ": offset " << C.Offset << ", "
          << C.PayloadBytes << " payload bytes, " << C.Events << " events, "
          << C.Symbols << " symbols (" << C.SymbolBytes << " bytes)\n";
    }
    if (Rows < Info->Chunks.size())
      Out << "    ... " << (Info->Chunks.size() - Rows) << " more chunks\n";
  }
  return ExitClean;
}

//===----------------------------------------------------------------------===//
// crd profile
//===----------------------------------------------------------------------===//

const char ProfileHelp[] =
    "usage: crd profile [options] <trace>\n"
    "\n"
    "Streams a trace through a detector backend and prints the\n"
    "observability snapshot as JSON: ingress event-kind counts, decode\n"
    "counters (binary traces), and per-backend detector counters — for\n"
    "the sequential backend, Algorithm 1 counters and the batched\n"
    "kernel's time. Schema: docs/observability.md. Findings are counted\n"
    "in the snapshot, not judged: a racy trace still exits 0.\n"
    "Exit code 1 = malformed trace, 2 = usage or I/O error.\n"
    "\n"
    "options (--opt=V and --opt V forms are both accepted):\n"
    "  --detector=seq|fasttrack|atomicity   backend (default seq)\n"
    "  --spec=FILE          ECL spec for action commutativity (default:\n"
    "                       builtin dictionary, paper Fig 6)\n"
    "  --memo[=off|full]    chunk memoization for binary traces with\n"
    "                       content digests (default off; bare --memo =\n"
    "                       full). The snapshot's \"memo\" and \"source\"\n"
    "                       objects report hit/miss/replay counters\n";

int runProfile(const std::vector<std::string> &Raw, std::ostream &Out,
               std::ostream &Err) {
  ParsedArgs Args(joinValueOptions(Raw, {"--detector", "--spec"}));

  if (Args.Help) {
    Out << ProfileHelp;
    return ExitClean;
  }
  if (auto Bad = Args.unknownOption({"detector", "spec", "memo"})) {
    Err << "error: unknown option --" << *Bad << "\n" << ProfileHelp;
    return ExitUsage;
  }
  if (Args.Positional.size() != 1) {
    Err << ProfileHelp;
    return ExitUsage;
  }

  wire::PipelineOptions Opts;
  std::string DetectorName = Args.option("detector").value_or("seq");
  if (auto B = serve::parseBackendToken(DetectorName)) {
    Opts.TheBackend = *B;
  } else {
    Err << "error: unknown detector '" << DetectorName << "'\n" << ProfileHelp;
    return ExitUsage;
  }
  if (!parseMemoMode(Args, Opts.Memo, Err))
    return ExitUsage;

  int Exit = ExitClean;
  std::unique_ptr<TranslatedRep> Rep;
  if (Opts.TheBackend != wire::Backend::FastTrack) {
    Rep = loadProvider(Args.option("spec").value_or(""), Err, Exit);
    if (!Rep)
      return Exit;
  }

  DiagnosticEngine Diags;
  auto Source = wire::openEventSource(Args.Positional[0], Diags);
  if (!Source) {
    Err << Diags.toString();
    return ExitUsage;
  }

  wire::StreamPipeline Pipeline(Opts);
  if (Rep)
    Pipeline.setDefaultProvider(Rep.get());
  Pipeline.run(*Source);
  if (Source->failed()) {
    Err << Args.Positional[0] << ":\n" << Diags.toString();
    return ExitFindings;
  }

  Pipeline.writeMetricsJson(Out, Source.get());
  return ExitClean;
}

//===----------------------------------------------------------------------===//
// crd analyze (the classic trace_analyzer report)
//===----------------------------------------------------------------------===//

const char AnalyzeHelp[] =
    "usage: crd analyze <trace-file> [spec-file]\n"
    "\n"
    "The full offline report over one trace (text or binary): trace\n"
    "statistics, commutativity races with a triage summary, FastTrack\n"
    "read-write races, and — when the trace marks atomic blocks — the\n"
    "commutativity-aware atomicity violations.\n";

} // namespace

int cli::runAnalyze(const std::vector<std::string> &Args, std::ostream &Out,
                    std::ostream &Err) {
  ParsedArgs Parsed(Args);
  if (Parsed.Help) {
    Out << AnalyzeHelp;
    return ExitClean;
  }
  if (auto Bad = Parsed.unknownOption({})) {
    Err << "error: unknown option --" << *Bad << "\n" << AnalyzeHelp;
    return ExitUsage;
  }
  if (Parsed.Positional.empty() || Parsed.Positional.size() > 2) {
    Err << AnalyzeHelp;
    return ExitUsage;
  }
  const std::string &TracePath = Parsed.Positional[0];

  // Materialize the trace from either format (this report is offline and
  // wants validation plus multiple passes).
  DiagnosticEngine Diags;
  auto Source = wire::openEventSource(TracePath, Diags);
  if (!Source) {
    Err << Diags.toString();
    return ExitUsage;
  }
  Trace T;
  {
    Event E = Event::txBegin(ThreadId(0));
    while (Source->next(E))
      T.append(E);
  }
  if (Source->failed()) {
    Err << TracePath << ":\n" << Diags.toString();
    return ExitFindings;
  }
  if (!T.validate(Diags)) {
    Err << "trace is malformed:\n" << Diags.toString();
    return ExitFindings;
  }

  int Exit = ExitClean;
  auto Rep = loadProvider(Parsed.Positional.size() > 1 ? Parsed.Positional[1]
                                                       : std::string(),
                          Err, Exit);
  if (!Rep)
    return Exit;

  CommutativityRaceDetector RD2;
  RD2.setDefaultProvider(Rep.get());
  RD2.processTrace(T);
  const std::vector<CommutativityRace> &CRaces = RD2.races();

  FastTrackDetector FT;
  FT.processTrace(T);

  TraceStats::compute(T).print(Out);
  Out << '\n';
  Out << "commutativity races (" << RD2.raceCount() << " total, "
      << RD2.distinctRacyObjects() << " distinct objects):\n";
  for (const CommutativityRace &R : CRaces)
    Out << "  " << R << '\n';
  if (!CRaces.empty()) {
    Out << "\ntriage summary:\n";
    RaceSummary::build(CRaces).print(Out);
  }

  Out << "\nread-write races (" << FT.raceCount() << " total, "
      << FT.distinctRacyVars() << " distinct locations):\n";
  for (const MemoryRace &R : FT.races())
    Out << "  " << R << '\n';

  // Atomicity: only meaningful when the trace marks atomic blocks.
  bool HasTx = false;
  for (const Event &E : T)
    HasTx |= E.kind() == EventKind::TxBegin;
  size_t Violations = 0;
  if (HasTx) {
    AtomicityChecker Checker;
    Checker.setDefaultProvider(Rep.get());
    auto Found = Checker.check(T);
    Violations = Found.size();
    Out << "\natomicity violations (" << Violations << "):\n";
    for (const AtomicityViolation &V : Found)
      Out << "  " << V << '\n';
  }

  return (CRaces.empty() && FT.races().empty() && Violations == 0)
             ? ExitClean
             : ExitFindings;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

namespace {

const char DriverHelp[] =
    "usage: crd <command> [options]\n"
    "\n"
    "The unified CRD trace tool. Commands:\n"
    "  convert   convert a trace between text and binary wire formats\n"
    "  check     stream a trace through a race/atomicity detector\n"
    "  stats     chunk / size / compression report for a trace file\n"
    "  profile   metrics snapshot (JSON) for a run\n"
    "  serve     multi-tenant detection daemon over sockets (and client)\n"
    "  analyze   full offline report (races, triage, atomicity)\n"
    "\n"
    "Run 'crd <command> --help' for per-command options.\n"
    "Exit codes: 0 = clean, 1 = findings or malformed input, 2 = usage/I-O\n"
    "error.\n";

} // namespace

int cli::crdMain(const std::vector<std::string> &Args, std::ostream &Out,
                 std::ostream &Err) {
  if (Args.empty() || Args[0] == "--help" || Args[0] == "-h" ||
      Args[0] == "help") {
    (Args.empty() ? Err : Out) << DriverHelp;
    return Args.empty() ? ExitUsage : ExitClean;
  }
  const std::string &Command = Args[0];
  std::vector<std::string> Rest(Args.begin() + 1, Args.end());
  ParsedArgs Parsed(Rest);
  if (Command == "convert")
    return runConvert(Parsed, Out, Err);
  if (Command == "check")
    return runCheck(Parsed, Out, Err);
  if (Command == "stats")
    return runStats(Parsed, Out, Err);
  if (Command == "profile")
    return runProfile(Rest, Out, Err);
  if (Command == "serve")
    return internal::runServe(Rest, Out, Err);
  if (Command == "analyze")
    return runAnalyze(Rest, Out, Err);
  Err << "error: unknown command '" << Command << "'\n\n" << DriverHelp;
  return ExitUsage;
}

int cli::crdMain(int Argc, const char *const *Argv, std::ostream &Out,
                 std::ostream &Err) {
  std::vector<std::string> Args;
  for (int I = 1; I < Argc; ++I)
    Args.emplace_back(Argv[I]);
  return crdMain(Args, Out, Err);
}
