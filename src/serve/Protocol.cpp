//===- serve/Protocol.cpp - Detection daemon wire protocol -------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace crd;
using namespace crd::serve;

namespace {

/// Splits off the next space-separated token of \p Rest.
std::string_view nextToken(std::string_view &Rest) {
  while (!Rest.empty() && Rest.front() == ' ')
    Rest.remove_prefix(1);
  size_t End = Rest.find(' ');
  std::string_view Tok = Rest.substr(0, End);
  Rest.remove_prefix(End == std::string_view::npos ? Rest.size() : End);
  return Tok;
}

} // namespace

uint64_t serve::monotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char *serve::backendToken(wire::Backend B) {
  switch (B) {
  case wire::Backend::Sequential:
    return "seq";
  case wire::Backend::FastTrack:
    return "fasttrack";
  case wire::Backend::Atomicity:
    return "atomicity";
  }
  return "seq";
}

std::optional<wire::Backend> serve::parseBackendToken(std::string_view Token) {
  for (wire::Backend B : {wire::Backend::Sequential, wire::Backend::FastTrack,
                          wire::Backend::Atomicity})
    if (Token == backendToken(B))
      return B;
  return std::nullopt;
}

const char *serve::memoToken(wire::MemoMode M) {
  switch (M) {
  case wire::MemoMode::Off:
    return "off";
  case wire::MemoMode::Full:
    return "full";
  }
  return "off";
}

bool serve::parseHandshake(std::string_view Line, Handshake &H,
                           std::string &Error) {
  // Tolerate a trailing '\r' so `nc` users on CRLF terminals still parse.
  if (!Line.empty() && Line.back() == '\r')
    Line.remove_suffix(1);
  if (nextToken(Line) != ProtocolTag) {
    Error = std::string("handshake must open with '") + ProtocolTag + "'";
    return false;
  }
  H = Handshake();
  for (std::string_view Tok = nextToken(Line); !Tok.empty();
       Tok = nextToken(Line)) {
    if (Tok == "status") {
      H.Status = true;
      continue;
    }
    size_t Eq = Tok.find('=');
    std::string_view Key = Tok.substr(0, Eq);
    std::string_view Val =
        Eq == std::string_view::npos ? std::string_view() : Tok.substr(Eq + 1);
    if (Key == "detector") {
      std::optional<wire::Backend> B = parseBackendToken(Val);
      if (!B) {
        Error = "unknown detector '" + std::string(Val) + "'";
        return false;
      }
      H.TheBackend = *B;
    } else if (Key == "memo") {
      if (Val == "off")
        H.Memo = wire::MemoMode::Off;
      else if (Val == "full")
        H.Memo = wire::MemoMode::Full;
      else {
        Error = "unknown memo mode '" + std::string(Val) + "'";
        return false;
      }
    } else {
      Error = "unknown handshake token '" + std::string(Tok) + "'";
      return false;
    }
  }
  return true;
}

std::string serve::renderHandshake(const Handshake &H) {
  std::string Line = ProtocolTag;
  if (H.Status) {
    Line += " status";
    return Line;
  }
  Line += " detector=";
  Line += backendToken(H.TheBackend);
  Line += " memo=";
  Line += memoToken(H.Memo);
  return Line;
}

void serve::appendFrameHeader(std::string &Out, FrameType T,
                              uint32_t BodySize) {
  Out.push_back(static_cast<char>(T));
  for (unsigned I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((BodySize >> (8 * I)) & 0xff));
}

void serve::escapeJsonFrom(std::string &Out, size_t From) {
  auto It = std::find_if(Out.begin() + From, Out.end(), [](char C) {
    return C == '"' || C == '\\' || static_cast<unsigned char>(C) < 0x20;
  });
  if (It == Out.end())
    return;
  std::string Raw(It, Out.end());
  Out.erase(It, Out.end());
  appendJsonEscaped(Out, Raw);
}

void serve::appendJsonEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(C);
      }
      break;
    }
  }
}
