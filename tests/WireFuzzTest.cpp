//===- tests/WireFuzzTest.cpp - deterministic wire decoder fuzzing ------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// Deterministic fuzzing of the binary wire decoder: starting from valid
/// encodings of randomized traces, applies seeded byte flips, splices,
/// truncations and garbage prefixes/suffixes, then drives the decoder
/// (through BinaryStreamSource, whose batches span chunks, and through the
/// memo chunk API) and scanWire over the result. The
/// decoder must always terminate with either a clean stream or a
/// diagnostic — never crash, hang, or trip UB (run under the asan preset;
/// this target is also registered as `wire-fuzz`). Every chunk-API pull,
/// failed ones included, must leave a batch whose columns agree. Single-bit
/// flips inside payloads long enough to reach the CRC fold must each be
/// caught by the chunk CRC; damage behind a resealed CRC and digest must
/// be caught by the decoder itself.
///
//===----------------------------------------------------------------------===//

#include "support/Hashing.h"
#include "wire/Crc32.h"
#include "wire/EventSource.h"
#include "wire/Varint.h"
#include "wire/WireReader.h"
#include "wire/WireWriter.h"
#include "TraceGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

using namespace crd;
using namespace crd::wire;

namespace {

std::string encodeWire(const Trace &T, size_t EventsPerChunk) {
  std::ostringstream OS;
  WireWriter Writer(OS, EventsPerChunk);
  Writer.writeTrace(T);
  Writer.finish();
  return OS.str();
}

/// A pulled batch's columns agree: one thread and one operand per kind
/// byte, one invoke record per invoke kind byte, and a value column that
/// ends where the last record's values end.
void expectColumnsAgree(const EventBatch &B) {
  EXPECT_EQ(B.Threads.size(), B.Kinds.size());
  EXPECT_EQ(B.Operands.size(), B.Kinds.size());
  EXPECT_EQ(B.Invokes.size(),
            static_cast<size_t>(std::count(
                B.Kinds.begin(), B.Kinds.end(),
                static_cast<uint8_t>(EventKind::Invoke))));
  size_t ValuesEnd = 0;
  if (!B.Invokes.empty())
    ValuesEnd = B.Invokes.back().FirstValue + B.Invokes.back().NArgs +
                B.Invokes.back().NRets;
  EXPECT_EQ(B.Values.size(), ValuesEnd);
}

/// Decodes \p Bytes to exhaustion. The assertions here are intentionally
/// weak — the point is that the decoder terminates and stays in-bounds;
/// on failure it must have left a diagnostic behind. The chunk-API pass
/// skips verified repeats the way the memo pipeline does and decodes the
/// rest; \p Skipped (if given) receives how many chunks it skipped.
void mustSurvive(const std::string &Bytes, size_t *Skipped = nullptr) {
  size_t Decoded = 0;
  bool NextClean = false;
  {
    std::istringstream In(Bytes);
    DiagnosticEngine Diags;
    BinaryStreamSource Source(In, Diags);
    Event E = Event::txBegin(ThreadId(0));
    while (Source.next(E)) {
      ASSERT_LT(++Decoded, 1u << 22) << "decoder failed to terminate";
    }
    if (Source.failed()) {
      EXPECT_TRUE(Diags.hasErrors());
    }
    NextClean = !Source.failed();
  }
  {
    std::istringstream In(Bytes);
    DiagnosticEngine Diags;
    WireReader Reader(In, Diags);
    EventBatch B;
    size_t Chunks = 0, Skips = 0;
    while (std::optional<WireReader::ChunkView> View = Reader.beginChunk()) {
      ASSERT_LT(++Chunks, 1u << 22) << "chunk loop failed to terminate";
      if (View->VerifiedRepeat) {
        Reader.skipChunk();
        ++Skips;
      } else {
        B.clear();
        Reader.finishChunkInto(B);
        expectColumnsAgree(B);
      }
    }
    if (Reader.failed()) {
      EXPECT_TRUE(Diags.hasErrors());
    } else if (NextClean) {
      EXPECT_EQ(Reader.eventsRead(), Decoded);
    }
    if (Skipped)
      *Skipped = Skips;
  }
  {
    std::istringstream In(Bytes);
    DiagnosticEngine Diags;
    auto Info = scanWire(In, Diags);
    if (!Info.has_value()) {
      EXPECT_TRUE(Diags.hasErrors());
    }
  }
}

} // namespace

TEST(WireFuzzTest, SingleByteFlipsEverywhere) {
  // Exhaustive single-byte corruption of a small valid file: every byte,
  // every bit. Catches off-by-ones that random fuzzing can miss.
  std::string Base =
      encodeWire(testgen::randomTrace(1, 2, 6, 3, /*Maps=*/1), 4);
  ASSERT_LT(Base.size(), 2000u);
  for (size_t I = 0; I != Base.size(); ++I) {
    for (int Bit = 0; Bit != 8; ++Bit) {
      std::string Mutated = Base;
      Mutated[I] ^= static_cast<char>(1 << Bit);
      mustSurvive(Mutated);
    }
  }
}

TEST(WireFuzzTest, SingleBitFlipsThroughTheCrcFold) {
  // The base above keeps every payload under 64 bytes, where crc32() is
  // the table loop alone. Payloads of 200-600 bytes also run the fold's
  // 64-byte loop, its 16-byte fold and a table tail. CRC-32 detects every
  // single-bit error, so each flip inside a payload must fail the CRC
  // check, and fail nothing else first: a miss is a kernel bug.
  Trace T = testgen::randomTrace(5, 2, 40, 6, /*Maps=*/1);
  std::string Base = encodeWire(T, (T.size() + 2) / 3);
  std::istringstream ScanIn(Base);
  DiagnosticEngine ScanDiags;
  std::optional<WireFileInfo> Info = scanWire(ScanIn, ScanDiags);
  ASSERT_TRUE(Info.has_value()) << ScanDiags.toString();
  ASSERT_EQ(Info->Chunks.size(), 3u);
  for (const WireChunkInfo &Chunk : Info->Chunks) {
    ASSERT_GE(Chunk.PayloadBytes, 200u);
    ASSERT_LE(Chunk.PayloadBytes, 600u);
    ASSERT_NE(Chunk.PayloadBytes % 16, 0u) << "no table tail";
    size_t Begin = Chunk.Offset + DigestChunkHeaderSize;
    for (size_t I = Begin; I != Begin + Chunk.PayloadBytes; ++I) {
      for (int Bit = 0; Bit != 8; ++Bit) {
        std::string Mutated = Base;
        Mutated[I] ^= static_cast<char>(1 << Bit);
        mustSurvive(Mutated);
        std::istringstream In(Mutated);
        DiagnosticEngine Diags;
        BinaryStreamSource Source(In, Diags);
        Event E = Event::txBegin(ThreadId(0));
        while (Source.next(E)) {
        }
        SCOPED_TRACE(testing::Message() << "byte " << I << " bit " << Bit);
        ASSERT_TRUE(Source.failed());
        EXPECT_EQ(Source.reader().stats().CrcErrors, 1u);
        EXPECT_NE(Diags.toString().find("chunk CRC mismatch"),
                  std::string::npos)
            << Diags.toString();
      }
    }
  }
}

TEST(WireFuzzTest, SeededRandomMutations) {
  std::mt19937 Rng(0xC0DECu); // Deterministic: same corpus every run.
  // The second base is one random trace appended three times, one
  // repetition per chunk: three byte-identical chunks, so the chunk-API
  // pass verifies and skips the last two, and its mutations reach the
  // repeat path.
  Trace Once = testgen::randomTrace(11, 3, 12, 4);
  Trace Thrice;
  for (int Rep = 0; Rep != 3; ++Rep)
    for (const Event &E : Once)
      Thrice.append(E);
  std::string Repeated = encodeWire(Thrice, Once.size());
  size_t Skipped = 0;
  mustSurvive(Repeated, &Skipped);
  EXPECT_EQ(Skipped, 2u);

  for (const std::string &Base :
       {encodeWire(testgen::randomTrace(7, 3, 20, 5), 16), Repeated}) {
    for (int Round = 0; Round != 400; ++Round) {
      std::string M = Base;
      switch (Rng() % 5) {
      case 0: // Burst of byte flips.
        for (unsigned N = 1 + Rng() % 8; N; --N)
          M[Rng() % M.size()] = static_cast<char>(Rng());
        break;
      case 1: // Truncate.
        M.resize(Rng() % M.size());
        break;
      case 2: // Duplicate a slice into the middle.
      {
        size_t From = Rng() % M.size();
        size_t Len = Rng() % (M.size() - From);
        M.insert(Rng() % M.size(), M.substr(From, Len));
        break;
      }
      case 3: // Garbage tail (looks like a further chunk header).
        for (unsigned N = 1 + Rng() % 16; N; --N)
          M.push_back(static_cast<char>(Rng()));
        break;
      case 4: // Zero a window (kills CRCs and lengths together).
      {
        size_t At = Rng() % M.size();
        size_t Len = std::min<size_t>(1 + Rng() % 32, M.size() - At);
        for (size_t I = 0; I != Len; ++I)
          M[At + I] = 0;
        break;
      }
      }
      mustSurvive(M);
    }
  }
}

namespace {

/// Offsets of the event bytes (past the chunk's event count and symbol
/// table) of every chunk in the digest-carrying file \p Bytes, as
/// [begin, end) pairs.
std::vector<std::pair<size_t, size_t>>
eventByteRanges(const std::string &Bytes) {
  std::vector<std::pair<size_t, size_t>> Ranges;
  for (size_t At = FileHeaderSize;
       At + DigestChunkHeaderSize <= Bytes.size();) {
    uint32_t Size = 0;
    for (int I = 0; I != 4; ++I)
      Size |= uint32_t(static_cast<uint8_t>(Bytes[At + I])) << (8 * I);
    size_t Payload = At + DigestChunkHeaderSize;
    ByteReader R(reinterpret_cast<const uint8_t *>(Bytes.data()) + Payload,
                 Size);
    R.varint();
    for (uint64_t N = R.varint().value_or(0); N; --N)
      R.bytes(static_cast<size_t>(R.varint().value_or(0)));
    Ranges.push_back({Payload + R.offset(), Payload + Size});
    At = Payload + Size;
  }
  return Ranges;
}

/// Rewrites the CRC and digest of the chunk whose event bytes are \p Range
/// so that they match its (possibly damaged) payload again.
void reseal(std::string &Bytes, std::pair<size_t, size_t> Range) {
  size_t Header = 0, Payload = 0;
  for (size_t At = FileHeaderSize;;) {
    uint32_t Size = 0;
    for (int I = 0; I != 4; ++I)
      Size |= uint32_t(static_cast<uint8_t>(Bytes[At + I])) << (8 * I);
    Header = At;
    Payload = At + DigestChunkHeaderSize;
    if (Payload + Size == Range.second)
      break;
    At = Payload + Size;
  }
  uint32_t Crc = crc32(Bytes.data() + Payload, Range.second - Payload);
  uint64_t Digest =
      hashBytes64(Bytes.data() + Range.first, Range.second - Range.first);
  for (int I = 0; I != 4; ++I)
    Bytes[Header + 4 + I] = static_cast<char>(Crc >> (8 * I));
  for (int I = 0; I != 8; ++I)
    Bytes[Header + 8 + I] = static_cast<char>(Digest >> (8 * I));
}

} // namespace

TEST(WireFuzzTest, ResealedEventDamageReachesTheDecoder) {
  // The CRC and digest are rewritten after the damage, so only the event
  // decoder stands between the bytes and the batch: it must stop on the
  // first malformed event and leave only the whole events before it.
  std::mt19937 Rng(0x5EA1u);
  std::string Base = encodeWire(testgen::randomTrace(3, 3, 30, 5), 16);
  std::vector<std::pair<size_t, size_t>> Ranges = eventByteRanges(Base);
  ASSERT_GT(Ranges.size(), 2u);
  size_t DecoderFailures = 0;
  for (int Round = 0; Round != 400; ++Round) {
    std::string M = Base;
    std::pair<size_t, size_t> Range = Ranges[Rng() % Ranges.size()];
    for (unsigned N = 1 + Rng() % 3; N; --N)
      M[Range.first + Rng() % (Range.second - Range.first)] =
          static_cast<char>(Rng());
    reseal(M, Range);
    mustSurvive(M);
    std::istringstream In(M);
    DiagnosticEngine Diags;
    WireReader Reader(In, Diags);
    EventBatch B;
    while (Reader.nextBatch(B, PullBatchEvents))
      expectColumnsAgree(B);
    expectColumnsAgree(B);
    EXPECT_EQ(Reader.stats().CrcErrors + Reader.stats().DigestErrors, 0u);
    DecoderFailures += Reader.failed();
  }
  EXPECT_GT(DecoderFailures, 300u);
}

TEST(WireFuzzTest, PureGarbageStreams) {
  std::mt19937 Rng(1234567);
  for (int Round = 0; Round != 200; ++Round) {
    std::string M(Rng() % 512, '\0');
    for (char &C : M)
      C = static_cast<char>(Rng());
    mustSurvive(M);
  }
}

TEST(WireFuzzTest, ValidHeaderGarbageBody) {
  std::mt19937 Rng(42);
  std::string Header = encodeWire(Trace(), 4); // Magic + version + flags.
  for (int Round = 0; Round != 200; ++Round) {
    std::string M = Header;
    size_t N = Rng() % 256;
    for (size_t I = 0; I != N; ++I)
      M.push_back(static_cast<char>(Rng()));
    mustSurvive(M);
  }
}

TEST(WireFuzzTest, ChunkHeadersWithHostileLengths) {
  // Hand-built chunk headers claiming pathological payload sizes; the
  // reader must refuse the oversized ones without allocating them.
  std::string Header = encodeWire(Trace(), 4);
  for (uint32_t Claim :
       {0u, 1u, 0xFFFFFFFFu, MaxChunkPayload, MaxChunkPayload + 1}) {
    std::string M = Header;
    for (int I = 0; I != 4; ++I)
      M.push_back(static_cast<char>((Claim >> (8 * I)) & 0xFF));
    for (int I = 0; I != 4; ++I)
      M.push_back('\x11'); // Bogus CRC field.
    M += "abcd";           // Far less payload than claimed.
    mustSurvive(M);
  }
}
