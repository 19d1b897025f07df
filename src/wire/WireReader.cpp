//===- wire/WireReader.cpp - Streaming binary trace reader -------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "wire/WireReader.h"

#include "support/Hashing.h"
#include "wire/Crc32.h"
#include "wire/Varint.h"

#include <algorithm>
#include <iterator>
#include <istream>
#include <limits>
#include <sstream>

using namespace crd;
using namespace crd::wire;

namespace {

/// Structural errors carry the byte offset instead of a line/column; the
/// offset is packed into the diagnostic text (SourceLocation is line
/// oriented and deliberately left invalid).
std::string atOffset(size_t Offset, const std::string &Message) {
  std::ostringstream OS;
  OS << Message << " (at byte " << Offset << ")";
  return OS.str();
}

/// Reads a u32le chunk-header field. Returns nullopt at clean EOF before
/// the first byte, -1-style failure via the bool otherwise.
enum class HeaderRead { Ok, Eof, Truncated };

HeaderRead readU32le(std::istream &In, uint32_t &V) {
  char B[4];
  In.read(B, 4);
  std::streamsize Got = In.gcount();
  if (Got == 0)
    return HeaderRead::Eof;
  if (Got != 4)
    return HeaderRead::Truncated;
  V = static_cast<uint8_t>(B[0]) | (static_cast<uint8_t>(B[1]) << 8) |
      (static_cast<uint8_t>(B[2]) << 16) |
      (static_cast<uint32_t>(static_cast<uint8_t>(B[3])) << 24);
  return HeaderRead::Ok;
}

HeaderRead readU64le(std::istream &In, uint64_t &V) {
  char B[8];
  In.read(B, 8);
  std::streamsize Got = In.gcount();
  if (Got == 0)
    return HeaderRead::Eof;
  if (Got != 8)
    return HeaderRead::Truncated;
  V = 0;
  for (unsigned I = 0; I != 8; ++I)
    V |= uint64_t(static_cast<uint8_t>(B[I])) << (8 * I);
  return HeaderRead::Ok;
}

/// Reads one chunk (header + CRC-validated payload) into \p Payload; the
/// header carries a content digest iff \p WithDigest (the file-header
/// flag). Returns false at clean EOF; on error, reports and sets
/// \p Failed, and additionally sets \p *CrcError when the failure is a CRC
/// mismatch.
bool readChunk(std::istream &In, DiagnosticEngine &Diags, size_t &FileOffset,
               bool WithDigest, uint64_t &Digest, std::string &Payload,
               bool &Failed, bool *CrcError = nullptr) {
  size_t HeaderSize = WithDigest ? DigestChunkHeaderSize : ChunkHeaderSize;
  uint32_t PayloadSize = 0, Crc = 0;
  HeaderRead First = readU32le(In, PayloadSize);
  if (First == HeaderRead::Eof)
    return false;
  if (First == HeaderRead::Truncated ||
      readU32le(In, Crc) != HeaderRead::Ok ||
      (WithDigest && readU64le(In, Digest) != HeaderRead::Ok)) {
    Diags.error({}, atOffset(FileOffset, "truncated chunk header"));
    Failed = true;
    return false;
  }
  if (PayloadSize > MaxChunkPayload) {
    Diags.error({}, atOffset(FileOffset, "chunk payload size " +
                                             std::to_string(PayloadSize) +
                                             " exceeds limit"));
    Failed = true;
    return false;
  }
  FileOffset += HeaderSize;

  Payload.resize(PayloadSize);
  In.read(Payload.data(), static_cast<std::streamsize>(PayloadSize));
  if (In.gcount() != static_cast<std::streamsize>(PayloadSize)) {
    Diags.error({}, atOffset(FileOffset, "truncated chunk payload: header "
                                         "promises " +
                                             std::to_string(PayloadSize) +
                                             " bytes"));
    Failed = true;
    return false;
  }
  uint32_t Actual = crc32(Payload.data(), Payload.size());
  if (Actual != Crc) {
    if (CrcError)
      *CrcError = true;
    std::ostringstream OS;
    OS << "chunk CRC mismatch: header 0x" << std::hex << Crc << ", payload 0x"
       << Actual;
    Diags.error({}, atOffset(FileOffset - HeaderSize, OS.str()));
    Failed = true;
    return false;
  }
  return true;
}

bool checkFileHeader(std::istream &In, DiagnosticEngine &Diags,
                     uint8_t &Flags) {
  char Header[FileHeaderSize];
  In.read(Header, FileHeaderSize);
  if (In.gcount() != static_cast<std::streamsize>(FileHeaderSize) ||
      Header[0] != Magic[0] || Header[1] != Magic[1] || Header[2] != Magic[2] ||
      Header[3] != Magic[3]) {
    Diags.error({}, "not a CRD binary trace (bad magic)");
    return false;
  }
  uint8_t Ver = static_cast<uint8_t>(Header[4]);
  if (Ver != Version) {
    Diags.error({}, "unsupported wire format version " + std::to_string(Ver) +
                        " (expected " + std::to_string(Version) + ")");
    return false;
  }
  Flags = static_cast<uint8_t>(Header[5]);
  if (Flags & ~KnownFlags) {
    Diags.error({}, "unsupported wire format flags 0x" + [&] {
      std::ostringstream OS;
      OS << std::hex << unsigned(Flags);
      return OS.str();
    }());
    return false;
  }
  return true;
}

/// Validates a chunk's header digest against its event bytes (the payload
/// after \p EventBytesPos). A mismatch is structural corruption of the
/// digest field — the CRC covers the payload but not the header — and is
/// rejected exactly like a CRC failure.
bool checkChunkDigest(const std::string &Payload, size_t EventBytesPos,
                      uint64_t Expected, size_t ChunkBase,
                      DiagnosticEngine &Diags, bool &Failed) {
  uint64_t Actual = hashBytes64(Payload.data() + EventBytesPos,
                                Payload.size() - EventBytesPos);
  if (Actual == Expected)
    return true;
  std::ostringstream OS;
  OS << "chunk digest mismatch: header 0x" << std::hex << Expected
     << ", events 0x" << Actual;
  Diags.error({}, atOffset(ChunkBase, OS.str()));
  Failed = true;
  return false;
}

/// Decodes the symbol-table section. Returns false on malformed input.
bool decodeSymbolTable(ByteReader &R, std::vector<Symbol> &Syms,
                       size_t *SymbolBytes = nullptr) {
  size_t Begin = R.offset();
  auto Count = R.varint();
  if (!Count || *Count > R.remaining()) // Each symbol needs ≥ 1 byte.
    return false;
  Syms.clear();
  Syms.reserve(static_cast<size_t>(*Count));
  for (uint64_t I = 0; I != *Count; ++I) {
    auto Len = R.varint();
    if (!Len)
      return false;
    auto Bytes = R.bytes(static_cast<size_t>(*Len));
    if (!Bytes)
      return false;
    Syms.push_back(symbol(std::string_view(
        reinterpret_cast<const char *>(Bytes->first), Bytes->second)));
  }
  if (SymbolBytes)
    *SymbolBytes = R.offset() - Begin;
  return true;
}

/// The in-memory kind of each opcode, indexed by opcode: the inverse of
/// the writer's opcodeOf().
constexpr EventKind KindOfOpcode[] = {
    EventKind::Fork,    EventKind::Join,    EventKind::Acquire,
    EventKind::Release, EventKind::Invoke,  EventKind::Read,
    EventKind::Write,   EventKind::TxBegin, EventKind::TxEnd};
static_assert(std::size(KindOfOpcode) ==
                  static_cast<size_t>(Opcode::TxEnd) + 1,
              "one kind per opcode");

/// Appends \p Count values read from \p R to \p Out; string values index
/// \p Syms. Returns false on malformed input, leaving the values decoded
/// so far appended for the caller to drop.
bool decodeValues(ByteReader &R, const std::vector<Symbol> &Syms,
                  uint64_t Count, std::vector<Value> &Out) {
  for (; Count; --Count) {
    auto Tag = R.byte();
    if (!Tag)
      return false;
    switch (static_cast<ValueTag>(*Tag)) {
    case ValueTag::Nil:
      Out.push_back(Value::nil());
      continue;
    case ValueTag::False:
      Out.push_back(Value::boolean(false));
      continue;
    case ValueTag::True:
      Out.push_back(Value::boolean(true));
      continue;
    case ValueTag::Int: {
      auto I = R.svarint();
      if (!I)
        return false;
      Out.push_back(Value::integer(*I));
      continue;
    }
    case ValueTag::Str: {
      auto Id = R.varint();
      if (!Id || *Id >= Syms.size())
        return false;
      Out.push_back(Value::string(Syms[static_cast<size_t>(*Id)]));
      continue;
    }
    }
    return false;
  }
  return true;
}

} // namespace

WireReader::WireReader(std::istream &In, DiagnosticEngine &Diags)
    : In(In), Diags(Diags) {
  if (!checkFileHeader(In, Diags, Flags))
    Failed = true;
  FileOffset = FileHeaderSize;
}

void WireReader::resume() {
  if (Failed)
    return;
  // A clean end of stream leaves eofbit (and failbit, from the short
  // read) set on the istream; clear both so the next header probe sees
  // whatever bytes the feeder appended since.
  In.clear();
}

void WireReader::fail(std::string Message) {
  Diags.error({}, atOffset(ChunkBase + Pos, std::move(Message)));
  Failed = true;
}

bool WireReader::loadChunk() {
  bool WithDigest = (Flags & FlagChunkDigests) != 0;
  ChunkBase =
      FileOffset + (WithDigest ? DigestChunkHeaderSize : ChunkHeaderSize);
  bool CrcError = false;
  Open = ChunkView();
  Open.HasDigest = WithDigest;
  if (!readChunk(In, Diags, FileOffset, WithDigest, Open.Digest, Payload,
                 Failed, &CrcError)) {
    if (CrcError)
      ++CrcErrors;
    return false;
  }
  FileOffset += Payload.size();
  Pos = 0;
  PrevThread = 0;
  PrevObject = 0;
  PayloadBytes += Payload.size();

  ByteReader R(reinterpret_cast<const uint8_t *>(Payload.data()),
               Payload.size());
  auto Count = R.varint();
  if (!Count) {
    fail("malformed chunk: bad event count");
    return false;
  }
  if (!decodeSymbolTable(R, Syms)) {
    fail("malformed chunk: bad symbol table");
    return false;
  }
  EventsLeft = *Count;
  Open.Events = static_cast<size_t>(*Count);
  Pos = R.offset();
  if (WithDigest && !checkChunkDigest(Payload, Pos, Open.Digest, ChunkBase,
                                      Diags, Failed)) {
    ++DigestErrors;
    return false;
  }
  SymbolCount += Syms.size();
  ++NumChunks;
  return true;
}

size_t WireReader::nextBatch(EventBatch &B, size_t MaxEvents) {
  // Invoke records hold 32-bit value offsets. An event carries at most one
  // payload's worth of values (each takes a byte or more), so a pull that
  // stops taking events here never overflows them.
  constexpr size_t MaxBatchValues =
      std::numeric_limits<uint32_t>::max() - MaxChunkPayload;
  size_t Decoded = 0;
  while (Decoded != MaxEvents && !Failed &&
         B.Values.size() <= MaxBatchValues) {
    if (EventsLeft == 0) {
      if (!loadChunk())
        break;
      continue;
    }
    // The batch owns what is decoded into it, so it may span chunks.
    if (!decodeInto(B))
      break;
    ++Decoded;
  }
  ArenaPeak = std::max<uint64_t>(ArenaPeak, B.Values.size() * sizeof(Value));
  return Decoded;
}

std::optional<WireReader::ChunkView> WireReader::beginChunk() {
  if (Failed)
    return std::nullopt;
  while (EventsLeft == 0) {
    if (!loadChunk())
      return std::nullopt;
    // Verify against the first payload stored under this digest, or
    // store this one. A stored payload never changes, so a hit is a
    // byte-identical repeat of a chunk this reader already validated.
    if (Open.HasDigest) {
      auto It = Store.find(Open.Digest);
      if (It != Store.end()) {
        Open.VerifiedRepeat = It->second == Payload;
      } else if (StoreBytes < MemoStoreMaxBytes) {
        StoreBytes += Payload.size();
        Store.emplace(Open.Digest, Payload);
      }
    }
    if (Open.VerifiedRepeat)
      ++MemoHits;
    else
      ++MemoMisses;
  }
  return Open;
}

void WireReader::skipChunk() {
  if (EventsLeft == 0)
    return;
  NumEvents += EventsLeft;
  EventsLeft = 0;
  MemoBytesSaved += Payload.size();
}

bool WireReader::decodeInto(EventBatch &B) {
  ByteReader R(reinterpret_cast<const uint8_t *>(Payload.data()) + Pos,
               Payload.size() - Pos);

  auto Op = R.byte();
  if (!Op) {
    fail("truncated chunk: event count overruns payload");
    return false;
  }
  if (*Op > static_cast<uint8_t>(Opcode::TxEnd)) {
    fail("unknown event opcode " + std::to_string(*Op));
    return false;
  }

  // Decodes an id field as a zigzag delta against \p Prev, updating it.
  auto deltaId = [&](uint32_t &Prev, uint32_t &Out) {
    auto Delta = R.svarint();
    if (!Delta)
      return false;
    int64_t Id = static_cast<int64_t>(Prev) + *Delta;
    if (Id < 0 || Id > std::numeric_limits<uint32_t>::max())
      return false;
    Prev = static_cast<uint32_t>(Id);
    Out = Prev;
    return true;
  };
  // Decodes a raw varint id field.
  auto rawId = [&](uint32_t &Out) {
    auto V = R.varint();
    if (!V || *V > std::numeric_limits<uint32_t>::max())
      return false;
    Out = static_cast<uint32_t>(*V);
    return true;
  };

  auto outOfRange = [](const char *What, uint32_t Id) {
    return std::string(What) + " " + std::to_string(Id) +
           " out of range: thread ids must be below " +
           std::to_string(ThreadIdLimit);
  };
  uint32_t Thread = 0;
  if (!deltaId(PrevThread, Thread)) {
    fail("malformed event: bad thread id");
    return false;
  }
  if (Thread >= ThreadIdLimit) {
    fail(outOfRange("malformed event: thread id", Thread));
    return false;
  }

  // Values go straight into the value column. Every failure from here on
  // drops them again, so a failed pull leaves only whole events.
  size_t FirstValue = B.Values.size();
  auto failEvent = [&](std::string Message) {
    B.Values.resize(FirstValue);
    fail(std::move(Message));
    return false;
  };
  uint32_t Operand = 0;
  EventBatch::InvokeRecord Record;
  switch (static_cast<Opcode>(*Op)) {
  case Opcode::Fork:
  case Opcode::Join:
    if (!rawId(Operand))
      return failEvent("malformed fork/join event: bad target thread");
    if (Operand >= ThreadIdLimit)
      return failEvent(
          outOfRange("malformed fork/join event: target thread id", Operand));
    break;
  case Opcode::Acquire:
  case Opcode::Release:
    if (!rawId(Operand))
      return failEvent("malformed acquire/release event: bad lock id");
    break;
  case Opcode::Read:
  case Opcode::Write:
    if (!rawId(Operand))
      return failEvent("malformed read/write event: bad location id");
    break;
  case Opcode::TxBegin:
  case Opcode::TxEnd:
    break;
  case Opcode::Invoke: {
    if (!deltaId(PrevObject, Operand))
      return failEvent("malformed action event: bad object id");
    auto MethodId = R.varint();
    if (!MethodId || *MethodId >= Syms.size())
      return failEvent("malformed action event: bad method symbol");
    auto NArgs = R.varint();
    if (!NArgs || *NArgs > R.remaining()) // Each value needs ≥ 1 byte.
      return failEvent("malformed action event: bad argument count");
    if (!decodeValues(R, Syms, *NArgs, B.Values))
      return failEvent("malformed action event: bad argument value");
    auto NRets = R.varint();
    if (!NRets || *NRets > R.remaining())
      return failEvent("malformed action event: bad return count");
    if (!decodeValues(R, Syms, *NRets, B.Values))
      return failEvent("malformed action event: bad return value");
    Record = {Syms[static_cast<size_t>(*MethodId)],
              static_cast<uint32_t>(FirstValue),
              static_cast<uint32_t>(*NArgs), static_cast<uint32_t>(*NRets)};
    break;
  }
  }
  Pos += R.offset();
  --EventsLeft;
  ++NumEvents;
  // A chunk's events must consume its payload exactly.
  if (EventsLeft == 0 && Pos != Payload.size())
    return failEvent("malformed chunk: " +
                     std::to_string(Payload.size() - Pos) +
                     " trailing payload bytes after last event");
  B.Kinds.push_back(static_cast<uint8_t>(KindOfOpcode[*Op]));
  B.Threads.push_back(ThreadId(Thread));
  B.Operands.push_back(Operand);
  if (*Op == static_cast<uint8_t>(Opcode::Invoke))
    B.Invokes.push_back(Record);
  return true;
}

std::optional<WireFileInfo> wire::scanWire(std::istream &In,
                                           DiagnosticEngine &Diags) {
  uint8_t Flags = 0;
  if (!checkFileHeader(In, Diags, Flags))
    return std::nullopt;
  bool WithDigest = (Flags & FlagChunkDigests) != 0;
  size_t HeaderSize = WithDigest ? DigestChunkHeaderSize : ChunkHeaderSize;

  WireFileInfo Info;
  Info.TotalBytes = FileHeaderSize;
  size_t FileOffset = FileHeaderSize;
  std::string Payload;
  bool Failed = false;
  while (true) {
    size_t ChunkOffset = FileOffset;
    uint64_t Digest = 0;
    if (!readChunk(In, Diags, FileOffset, WithDigest, Digest, Payload,
                   Failed)) {
      if (Failed)
        return std::nullopt;
      break; // Clean EOF.
    }
    FileOffset += Payload.size();

    ByteReader R(reinterpret_cast<const uint8_t *>(Payload.data()),
                 Payload.size());
    WireChunkInfo Chunk;
    Chunk.Offset = ChunkOffset;
    Chunk.PayloadBytes = Payload.size();
    auto Count = R.varint();
    std::vector<Symbol> Syms;
    if (!Count || !decodeSymbolTable(R, Syms, &Chunk.SymbolBytes)) {
      Diags.error({}, atOffset(ChunkOffset, "malformed chunk prologue"));
      return std::nullopt;
    }
    // Digest over the event bytes: verified against the header when
    // present, computed from scratch for legacy files — repetition stats
    // work either way.
    if (WithDigest) {
      if (!checkChunkDigest(Payload, R.offset(), Digest,
                            ChunkOffset + HeaderSize, Diags, Failed))
        return std::nullopt;
      Chunk.Digest = Digest;
      Chunk.DigestInHeader = true;
    } else {
      Chunk.Digest = hashBytes64(Payload.data() + R.offset(),
                                 Payload.size() - R.offset());
    }
    Chunk.Events = static_cast<size_t>(*Count);
    Chunk.Symbols = Syms.size();
    Info.TotalEvents += Chunk.Events;
    Info.TotalBytes += HeaderSize + Payload.size();
    Info.Chunks.push_back(Chunk);
  }
  return Info;
}
