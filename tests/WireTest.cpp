//===- tests/WireTest.cpp - binary wire format round-trip tests ---------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// Properties of the chunked binary trace encoding:
///
///   * text→binary→text round-trips are identical event-for-event (string
///     escapes, multi-return values, nil/bool values, negative integers),
///     over hand-built and randomized traces and across chunk sizes;
///   * the chunk CRC-32 and content digest keep their pinned values, and
///     the PCLMULQDQ fold and the word-load digest equal their byte-at-a-
///     time references at every length and alignment;
///   * the binary source rejects truncated chunks, corrupted payloads (bad
///     CRC), bad magic and unknown versions with a diagnostic, never a
///     crash;
///   * scanWire reports the chunk shape without decoding events;
///   * WireSink records a live SimRuntime execution bit-equal to the
///     TraceRecorder + writeTrace path;
///   * the paper's H2 circuit reports the same pinned races through the
///     binary stream and through text parsing;
///   * the seeded stress trace (StressTrace.h) is well-formed, hands locks
///     across threads, races, and encodes to the same bytes every time;
///   * a pulled batch of it takes less memory than an array of as many
///     Events would.
///
//===----------------------------------------------------------------------===//

#include "detect/CommutativityDetector.h"
#include "runtime/InstrumentedMap.h"
#include "runtime/SimRuntime.h"
#include "runtime/Sink.h"
#include "spec/Builtins.h"
#include "trace/TraceIO.h"
#include "translate/Translator.h"
#include "support/Hashing.h"
#include "wire/Crc32.h"
#include "wire/EventSource.h"
#include "wire/StreamPipeline.h"
#include "wire/Varint.h"
#include "wire/WireReader.h"
#include "wire/WireWriter.h"
#include "workloads/PolePosition.h"
#include "StreamedRaces.h"
#include "StressTrace.h"
#include "TraceGen.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <unordered_map>
#include <vector>

using namespace crd;
using namespace crd::wire;

namespace {

/// Events carry no operator==; field-compare via the per-kind accessors.
void expectEventEq(const Event &A, const Event &B, size_t Index) {
  ASSERT_EQ(A.kind(), B.kind()) << "event " << Index;
  EXPECT_EQ(A.thread(), B.thread()) << "event " << Index;
  switch (A.kind()) {
  case EventKind::Fork:
  case EventKind::Join:
    EXPECT_EQ(A.other(), B.other()) << "event " << Index;
    break;
  case EventKind::Acquire:
  case EventKind::Release:
    EXPECT_EQ(A.lock(), B.lock()) << "event " << Index;
    break;
  case EventKind::Read:
  case EventKind::Write:
    EXPECT_EQ(A.var(), B.var()) << "event " << Index;
    break;
  case EventKind::Invoke:
    EXPECT_EQ(A.action(), B.action()) << "event " << Index;
    break;
  case EventKind::TxBegin:
  case EventKind::TxEnd:
    break;
  }
}

std::string encode(const Trace &T, size_t EventsPerChunk) {
  std::ostringstream OS;
  WireWriter Writer(OS, EventsPerChunk);
  Writer.writeTrace(T);
  Writer.finish();
  return OS.str();
}

Trace decode(const std::string &Bytes) {
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);
  Trace T;
  Event E = Event::txBegin(ThreadId(0));
  while (Source.next(E))
    T.append(E);
  EXPECT_FALSE(Source.failed()) << Diags.toString();
  return T;
}

void expectRoundTrip(const Trace &T, size_t EventsPerChunk) {
  Trace Decoded = decode(encode(T, EventsPerChunk));
  ASSERT_EQ(Decoded.size(), T.size());
  for (size_t I = 0; I != T.size(); ++I)
    expectEventEq(T[I], Decoded[I], I);
}

/// A trace exercising every event kind and every value shape: escapes,
/// multi-return values, nil/bool, negative ints, id jumps (delta stress),
/// and an action wider than Action's inline storage.
Trace awkwardTrace() {
  Trace T;
  T.append(Event::fork(ThreadId(0), ThreadId(7)));
  T.append(Event::invoke(
      ThreadId(7), Action(ObjectId(3), symbol("put"),
                          {Value::string("a\"b\\c\nd\te"), Value::integer(-42)},
                          Value::nil())));
  T.append(Event::invoke(
      ThreadId(0),
      Action(ObjectId(900000), symbol("deq"), {},
             std::vector<Value>{Value::integer(7), Value::boolean(true)})));
  T.append(Event::invoke(
      ThreadId(7), Action(ObjectId(0), symbol("weird_m3"),
                          {Value::boolean(false), Value::nil(),
                           Value::string(""), Value::string("a\"b\\c\nd\te")},
                          std::vector<Value>{})));
  T.append(Event::invoke(
      ThreadId(0),
      Action(ObjectId(41), symbol("wide"),
             {Value::integer(1), Value::string("x"), Value::nil(),
              Value::boolean(true), Value::integer(-5)},
             std::vector<Value>{Value::string("a\"b\\c\nd\te"),
                                Value::integer(INT64_MAX),
                                Value::boolean(false), Value::nil()})));
  T.append(Event::acquire(ThreadId(7), LockId(5)));
  T.append(Event::read(ThreadId(7), VarId(123456)));
  T.append(Event::write(ThreadId(7), VarId(0)));
  T.append(Event::release(ThreadId(7), LockId(5)));
  T.append(Event::txBegin(ThreadId(0)));
  T.append(Event::invoke(ThreadId(0),
                         Action(ObjectId(2), symbol("get"),
                                {Value::integer(INT64_MIN)},
                                Value::integer(INT64_MAX))));
  T.append(Event::txEnd(ThreadId(0)));
  T.append(Event::join(ThreadId(0), ThreadId(7)));
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// Varint codec
//===----------------------------------------------------------------------===//

TEST(VarintTest, RoundTripBoundaries) {
  for (uint64_t V : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                     0xFFFFFFFFull, ~0ull}) {
    std::string Buf;
    putVarint(Buf, V);
    ByteReader R(reinterpret_cast<const uint8_t *>(Buf.data()), Buf.size());
    auto Back = R.varint();
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, V);
    EXPECT_TRUE(R.atEnd());
  }
}

TEST(VarintTest, ZigzagRoundTrip) {
  for (int64_t V : {int64_t(0), int64_t(-1), int64_t(1), int64_t(-64),
                    int64_t(64), INT64_MIN, INT64_MAX}) {
    std::string Buf;
    putSVarint(Buf, V);
    ByteReader R(reinterpret_cast<const uint8_t *>(Buf.data()), Buf.size());
    auto Back = R.svarint();
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, V);
  }
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
}

TEST(VarintTest, RejectsTruncatedAndOverlong) {
  // Truncated: continuation bit set, no next byte.
  uint8_t Trunc[] = {0x80};
  ByteReader R1(Trunc, 1);
  EXPECT_FALSE(R1.varint().has_value());
  // Overlong: 11 continuation bytes exceed 64 payload bits.
  uint8_t Over[11];
  for (auto &B : Over)
    B = 0xFF;
  ByteReader R2(Over, 11);
  EXPECT_FALSE(R2.varint().has_value());
}

//===----------------------------------------------------------------------===//
// Integrity kernels: chunk CRC-32 and content digest
//===----------------------------------------------------------------------===//

namespace {

/// The 1000-byte known-answer input: byte i is (131 i + 7) mod 256.
std::string patternBytes() {
  std::string S(1000, '\0');
  for (size_t I = 0; I != S.size(); ++I)
    S[I] = static_cast<char>((131 * I + 7) % 256);
  return S;
}

/// hashBytes64 as first defined, one byte load at a time: the reference
/// the word-load digest must equal bit for bit.
uint64_t hashBytes64ByteLoads(const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = 0x2545f4914f6cdd1dULL ^ (uint64_t(Size) * 0x9e3779b97f4a7c15ULL);
  size_t I = 0;
  for (; I + 8 <= Size; I += 8) {
    uint64_t W = 0;
    for (unsigned B = 0; B != 8; ++B)
      W |= uint64_t(P[I + B]) << (8 * B);
    H = (H ^ hashMix64(W)) * 0xff51afd7ed558ccdULL;
  }
  uint64_t Tail = 0;
  for (unsigned B = 0; I != Size; ++I, ++B)
    Tail |= uint64_t(P[I]) << (8 * B);
  if (Size % 8)
    H = (H ^ hashMix64(Tail)) * 0xc4ceb9fe1a85ec53ULL;
  return hashMix64(H);
}

} // namespace

TEST(IntegrityKernelTest, KnownAnswers) {
  // Both values are recorded on the wire, so they can never change.
  struct Case {
    std::string Input;
    uint32_t Crc;
    uint64_t Digest;
  };
  const Case Cases[] = {
      {"", 0x00000000u, 0xC0E16B163A85A4DCull},
      {"a", 0xE8B7BE43u, 0x5F099E0ED79E40B2ull},
      {"123456789", 0xCBF43926u, 0x344A541D21179DD8ull},
      {"commutativity race detection!", 0x763D0B4Du, 0x8DB127A1FF1C0DACull},
      {patternBytes(), 0x1ED57BB9u, 0xB5BEB58E3A2A4D13ull},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(testing::Message() << C.Input.size() << "-byte input");
    EXPECT_EQ(crc32(C.Input.data(), C.Input.size()), C.Crc);
    EXPECT_EQ(crc32Table(C.Input.data(), C.Input.size()), C.Crc);
    EXPECT_EQ(hashBytes64(C.Input.data(), C.Input.size()), C.Digest);
  }
}

TEST(IntegrityKernelTest, FoldRunsInEverySimdBuildOnPclmulHosts) {
#if (defined(__x86_64__) || defined(__i386__)) && !defined(CRD_DISABLE_SIMD)
  __builtin_cpu_init();
  EXPECT_EQ(crc32Folds(), __builtin_cpu_supports("pclmul") != 0);
#else
  EXPECT_FALSE(crc32Folds());
#endif
}

TEST(IntegrityKernelTest, CrcMatchesTableAtEveryLengthAndAlignment) {
  // Lengths 0-1024 cover the table-only sizes under 64, the 64-byte loop,
  // every 16-byte fold count and every tail; start offsets 0-15 cover
  // every alignment of the unaligned lane loads.
  std::mt19937 Rng(0xC4C32u);
  std::vector<uint8_t> Buf(1024 + 16);
  for (uint8_t &B : Buf)
    B = static_cast<uint8_t>(Rng());
  for (size_t Offset = 0; Offset != 16; ++Offset)
    for (size_t Len = 0; Len <= 1024; ++Len)
      ASSERT_EQ(crc32(Buf.data() + Offset, Len),
                crc32Table(Buf.data() + Offset, Len))
          << "length " << Len << " at offset " << Offset
          << (crc32Folds() ? " (fold)" : " (table only)");
}

TEST(IntegrityKernelTest, DigestMatchesByteLoadReference) {
  std::mt19937 Rng(0xD16E57u);
  std::vector<uint8_t> Buf(64 + 8);
  for (uint8_t &B : Buf)
    B = static_cast<uint8_t>(Rng());
  for (size_t Offset = 0; Offset != 8; ++Offset)
    for (size_t Len = 0; Len <= 64; ++Len)
      ASSERT_EQ(hashBytes64(Buf.data() + Offset, Len),
                hashBytes64ByteLoads(Buf.data() + Offset, Len))
          << "length " << Len << " at offset " << Offset;
}

//===----------------------------------------------------------------------===//
// Round-trips
//===----------------------------------------------------------------------===//

TEST(WireRoundTripTest, AwkwardTraceAllChunkSizes) {
  Trace T = awkwardTrace();
  for (size_t Chunk : {size_t(1), size_t(2), size_t(3), size_t(5),
                       size_t(100), DefaultEventsPerChunk})
    expectRoundTrip(T, Chunk);
}

TEST(WireRoundTripTest, TextBinaryTextIsIdentical) {
  // The full loop of `crd convert`: text → binary → text. The rendered
  // text (with escapes re-emitted) must be byte-identical.
  Trace T = awkwardTrace();
  std::string Text = traceToString(T);
  DiagnosticEngine Diags;
  auto Parsed = parseTrace(Text, Diags);
  ASSERT_TRUE(Parsed.has_value()) << Diags.toString();
  ASSERT_EQ(Parsed->size(), T.size());
  Trace Decoded = decode(encode(*Parsed, 3));
  EXPECT_EQ(traceToString(Decoded), Text);
}

TEST(WireRoundTripTest, RandomizedTraces) {
  for (uint64_t Seed : {1u, 7u, 42u, 1234u}) {
    Trace T = testgen::randomTrace(Seed, /*Workers=*/4, /*OpsPerWorker=*/30,
                                   /*Keys=*/8);
    expectRoundTrip(T, 64);
    expectRoundTrip(T, DefaultEventsPerChunk);
  }
}

TEST(WireRoundTripTest, EmptyTrace) {
  std::string Bytes = encode(Trace(), 16);
  EXPECT_EQ(Bytes.size(), FileHeaderSize); // Header only, no chunks.
  Trace Decoded = decode(Bytes);
  EXPECT_EQ(Decoded.size(), 0u);
}

TEST(WireRoundTripTest, ChunkingIsExact) {
  Trace T = testgen::randomTrace(3, 2, 20, 4);
  std::string Bytes = encode(T, 10);
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);
  Event E = Event::txBegin(ThreadId(0));
  while (Source.next(E))
    ;
  EXPECT_FALSE(Source.failed());
  EXPECT_EQ(Source.reader().eventsRead(), T.size());
  EXPECT_EQ(Source.reader().chunksRead(), (T.size() + 9) / 10);
}

//===----------------------------------------------------------------------===//
// Structural error handling
//===----------------------------------------------------------------------===//

TEST(WireErrorTest, RejectsBadMagic) {
  std::string Bytes = "NOPE";
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);
  Event E = Event::txBegin(ThreadId(0));
  EXPECT_FALSE(Source.next(E));
  EXPECT_TRUE(Source.failed());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(WireErrorTest, RejectsUnknownVersion) {
  std::string Bytes = encode(awkwardTrace(), 4);
  Bytes[4] = 99; // Version byte.
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  WireReader Reader(In, Diags);
  EXPECT_TRUE(Reader.failed());
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.toString().find("version"), std::string::npos);
}

TEST(WireErrorTest, RejectsEveryTruncationPoint) {
  Trace T = awkwardTrace();
  std::string Bytes = encode(T, 3);
  for (size_t Cut = 0; Cut != Bytes.size(); ++Cut) {
    std::istringstream In(Bytes.substr(0, Cut));
    DiagnosticEngine Diags;
    BinaryStreamSource Source(In, Diags);
    Event E = Event::txBegin(ThreadId(0));
    size_t Decoded = 0;
    while (Source.next(E))
      ++Decoded;
    // A truncation can only look clean at a chunk boundary; anywhere else
    // the reader must diagnose (header, payload or CRC failure).
    if (Source.failed()) {
      EXPECT_TRUE(Diags.hasErrors()) << "cut at " << Cut;
    }
    EXPECT_LE(Decoded, T.size()) << "cut at " << Cut;
  }
}

TEST(WireErrorTest, RejectsCorruptedPayloadByCrc) {
  std::string Bytes = encode(awkwardTrace(), 100);
  // Flip one byte inside the payload (past file header + the digest-bearing
  // chunk header). CRC is verified before the content digest, so payload
  // corruption is always reported as a CRC failure.
  Bytes[FileHeaderSize + DigestChunkHeaderSize + 3] ^= 0x40;
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);
  Event E = Event::txBegin(ThreadId(0));
  EXPECT_FALSE(Source.next(E));
  EXPECT_TRUE(Source.failed());
  EXPECT_NE(Diags.toString().find("CRC"), std::string::npos);
}

TEST(WireErrorTest, RejectsOversizedChunkClaim) {
  std::string Bytes = encode(awkwardTrace(), 100);
  // Rewrite the payload-size field to something absurd.
  uint32_t Huge = MaxChunkPayload + 1;
  for (int I = 0; I != 4; ++I)
    Bytes[FileHeaderSize + I] = static_cast<char>((Huge >> (8 * I)) & 0xFF);
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);
  Event E = Event::txBegin(ThreadId(0));
  EXPECT_FALSE(Source.next(E));
  EXPECT_TRUE(Source.failed());
  EXPECT_NE(Diags.toString().find("exceeds limit"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// scanWire
//===----------------------------------------------------------------------===//

TEST(ScanWireTest, ReportsChunkShape) {
  Trace T = awkwardTrace();
  std::string Bytes = encode(T, 5);
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  auto Info = scanWire(In, Diags);
  ASSERT_TRUE(Info.has_value()) << Diags.toString();
  EXPECT_EQ(Info->TotalEvents, T.size());
  EXPECT_EQ(Info->TotalBytes, Bytes.size());
  ASSERT_EQ(Info->Chunks.size(), (T.size() + 4) / 5);
  EXPECT_EQ(Info->Chunks[0].Events, 5u);
  EXPECT_GT(Info->Chunks[0].Symbols, 0u);
  EXPECT_GT(Info->bytesPerEvent(), 0.0);
}

TEST(ScanWireTest, DiagnosesCorruption) {
  std::string Bytes = encode(awkwardTrace(), 5);
  Bytes[Bytes.size() - 1] ^= 0xFF;
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  EXPECT_FALSE(scanWire(In, Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Sources and sinks
//===----------------------------------------------------------------------===//

TEST(EventSourceTest, TextStreamMatchesBatchParse) {
  Trace T = testgen::randomTrace(11, 3, 25, 6);
  std::string Text = "# header comment\n\n" + traceToString(T);
  std::istringstream In(Text);
  DiagnosticEngine Diags;
  TextStreamSource Source(In, Diags);
  Trace Streamed;
  Event E = Event::txBegin(ThreadId(0));
  while (Source.next(E))
    Streamed.append(E);
  EXPECT_FALSE(Source.failed()) << Diags.toString();
  ASSERT_EQ(Streamed.size(), T.size());
  for (size_t I = 0; I != T.size(); ++I)
    expectEventEq(T[I], Streamed[I], I);
}

TEST(EventSourceTest, TextStreamReportsLineNumbers) {
  std::istringstream In("T0: fork T1\n\nthis is not a trace line\n");
  DiagnosticEngine Diags;
  TextStreamSource Source(In, Diags);
  Event E = Event::txBegin(ThreadId(0));
  EXPECT_TRUE(Source.next(E));
  EXPECT_EQ(E.kind(), EventKind::Fork);
  EXPECT_FALSE(Source.next(E));
  EXPECT_TRUE(Source.failed());
  ASSERT_FALSE(Diags.all().empty());
  EXPECT_EQ(Diags.all()[0].Loc.Line, 3u);
}

TEST(EventSourceTest, WireSinkMatchesRecorder) {
  // Record the same deterministic execution twice: once through the
  // classic TraceRecorder, once straight to wire bytes.
  auto runInto = [](EventSink &Sink) {
    SimRuntime RT(99);
    InstrumentedMap Map(RT);
    ThreadId Main = RT.addInitialThread();
    RT.schedule(Main, [&](SimThread &T) {
      ThreadId W = T.fork([&Map](SimThread &T2) {
        Map.put(T2, Value::integer(1), Value::integer(10));
      });
      T.defer([W, &Map](SimThread &T3) {
        Map.put(T3, Value::integer(1), Value::integer(20));
        T3.join(W);
      });
    });
    RT.run(Sink);
  };

  TraceRecorder Recorder;
  runInto(Recorder);

  std::ostringstream OS;
  WireWriter Writer(OS, 4);
  WireSink Sink(Writer);
  runInto(Sink);
  Writer.finish();

  Trace Decoded = decode(OS.str());
  ASSERT_EQ(Decoded.size(), Recorder.trace().size());
  for (size_t I = 0; I != Decoded.size(); ++I)
    expectEventEq(Recorder.trace()[I], Decoded[I], I);
}

// The H2 ComplexConcurrency circuit (4 workers x 1000 queries, runtime and
// circuit seeds 2014) has pinned findings: 2,657 races on 3 objects, the
// same through the binary stream + StreamPipeline as through text parsing.
TEST(EventSourceTest, H2RacesPinnedOnBinaryAndTextPaths) {
  SimRuntime RT(/*Seed=*/2014);
  MVStore Store(RT);
  CircuitConfig Config;
  Config.WorkerThreads = 4;
  Config.QueriesPerWorker = 1000;
  Config.Seed = 2014;
  buildCircuit(Circuit::ComplexConcurrency, RT, Store, Config);
  TraceRecorder Recorder;
  RT.run(Recorder);
  const Trace &T = Recorder.trace();
  ASSERT_EQ(T.size(), 54289u);

  DiagnosticEngine SpecDiags;
  auto Rep = translateSpec(dictionarySpec(), SpecDiags);
  ASSERT_TRUE(Rep) << SpecDiags.toString();

  std::istringstream In(encode(T, DefaultEventsPerChunk));
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);
  StreamPipeline P({Backend::Sequential});
  P.setDefaultProvider(Rep.get());
  testgen::StreamedRaces Got;
  Got.collect(P);
  StreamSummary S = P.run(Source);
  EXPECT_FALSE(Source.failed()) << Diags.toString();
  EXPECT_EQ(S.Events, T.size());
  EXPECT_EQ(S.Races, 2657u);
  EXPECT_EQ(S.DistinctRacyObjects, 3u);

  DiagnosticEngine TextDiags;
  auto Parsed = parseTrace(traceToString(T), TextDiags);
  ASSERT_TRUE(Parsed) << TextDiags.toString();
  CommutativityRaceDetector Det;
  Det.setDefaultProvider(Rep.get());
  Det.processTrace(*Parsed);
  EXPECT_EQ(Det.distinctRacyObjects(), 3u);
  EXPECT_TRUE(Det.races() == Got.Races);
}

//===----------------------------------------------------------------------===//
// The stress trace (StressTrace.h)
//===----------------------------------------------------------------------===//

// The input of the decode bar (4 x 25,000 events) and serve-stress
// (3 x 20,000), plus a size whose scripts end where a lock window would
// open: well-formed, with cross-thread lock hand-offs, racy under the
// builtin dictionary spec, and the same bytes from every generation.
TEST(StressTraceTest, WellFormedRacyAndReproducible) {
  DiagnosticEngine SpecDiags;
  auto Rep = translateSpec(dictionarySpec(), SpecDiags);
  ASSERT_TRUE(Rep) << SpecDiags.toString();
  struct Size {
    unsigned Threads;
    uint64_t EventsPerThread;
  };
  for (Size Z : {Size{4, 25000}, Size{3, 20000}, Size{5, 3 * 64 + 1}}) {
    SCOPED_TRACE(::testing::Message()
                 << Z.Threads << " x " << Z.EventsPerThread);
    Trace T = testgen::stressTrace(testgen::StressSeed, Z.Threads,
                                   Z.EventsPerThread);
    ASSERT_EQ(T.size(), Z.Threads * Z.EventsPerThread);
    DiagnosticEngine Diags;
    EXPECT_TRUE(T.validate(Diags)) << Diags.toString();

    // A hand-off: thread B acquires L right after thread A != B released it.
    std::unordered_map<uint32_t, ThreadId> LastReleaser;
    size_t HandOffs = 0;
    for (const Event &E : T) {
      if (E.kind() == EventKind::Release)
        LastReleaser.insert_or_assign(E.lock().index(), E.thread());
      if (E.kind() != EventKind::Acquire)
        continue;
      auto It = LastReleaser.find(E.lock().index());
      HandOffs += It != LastReleaser.end() && It->second != E.thread();
    }
    EXPECT_GT(HandOffs, 0u);

    std::string Bytes = testgen::stressWire(testgen::StressSeed, Z.Threads,
                                            Z.EventsPerThread);
    EXPECT_TRUE(Bytes == testgen::stressWire(testgen::StressSeed, Z.Threads,
                                             Z.EventsPerThread));
    std::istringstream In(Bytes);
    DiagnosticEngine WireDiags;
    BinaryStreamSource Source(In, WireDiags);
    StreamPipeline P({Backend::Sequential});
    P.setDefaultProvider(Rep.get());
    StreamSummary S = P.run(Source);
    EXPECT_FALSE(Source.failed()) << WireDiags.toString();
    EXPECT_EQ(S.Events, T.size());
    EXPECT_GT(S.Races, 0u);
  }
}

// A pulled batch stores columns, not Events: each full pull of the
// stress trace (70% three-value puts) must take less memory than the
// event array alone of a batch of whole Events.
TEST(StressTraceTest, PulledBatchesStayUnderAnEventArray) {
  std::string Bytes = testgen::stressWire(testgen::StressSeed, 4, 25000);
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  WireReader Reader(In, Diags);
  EventBatch B;
  size_t Pulls = 0;
  for (; Reader.nextBatch(B, PullBatchEvents); B.clear()) {
    ++Pulls;
    EXPECT_LT(B.memoryFootprint(), PullBatchEvents * sizeof(Event))
        << "pull " << Pulls;
  }
  EXPECT_FALSE(Reader.failed()) << Diags.toString();
  EXPECT_EQ(Pulls, (100000 + PullBatchEvents - 1) / PullBatchEvents);
}

//===----------------------------------------------------------------------===//
// parseTraceLine
//===----------------------------------------------------------------------===//

TEST(ParseTraceLineTest, SkipsBlankAndComments) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseTraceLine("", 1, Diags).has_value());
  EXPECT_FALSE(parseTraceLine("  # comment", 2, Diags).has_value());
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(ParseTraceLineTest, ParsesOneEvent) {
  DiagnosticEngine Diags;
  auto E = parseTraceLine("T3: o1.put(\"k\", 7)/nil", 5, Diags);
  ASSERT_TRUE(E.has_value()) << Diags.toString();
  EXPECT_EQ(E->thread(), ThreadId(3));
  EXPECT_EQ(E->action().method(), symbol("put"));
}

TEST(ParseTraceLineTest, RemapsDiagnosticLine) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseTraceLine("T3: garbage!", 41, Diags).has_value());
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.all()[0].Loc.Line, 41u);
}

//===----------------------------------------------------------------------===//
// Value escaping (the text side of the round-trip)
//===----------------------------------------------------------------------===//

TEST(ValueEscapeTest, PrintedStringsReparse) {
  Value V = Value::string("a\"b\\c\nd\te");
  std::string Printed = V.toString();
  EXPECT_EQ(Printed, "\"a\\\"b\\\\c\\nd\\te\"");
  DiagnosticEngine Diags;
  auto E = parseTraceLine("T0: o0.put(" + Printed + ", 1)/nil", 1, Diags);
  ASSERT_TRUE(E.has_value()) << Diags.toString();
  EXPECT_EQ(E->action().args()[0], V);
}
