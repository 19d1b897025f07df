//===- trace/TraceIO.cpp - Trace text format -------------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "support/CharCursor.h"

#include <cctype>
#include <charconv>
#include <ostream>
#include <sstream>

using namespace crd;

void crd::writeTrace(std::ostream &OS, const Trace &T) { OS << T; }

std::string crd::traceToString(const Trace &T) {
  std::ostringstream OS;
  OS << T;
  return OS.str();
}

namespace {

/// Token kinds of the trace lexer.
enum class TokKind {
  Eof,
  Newline,
  Ident,   // fork, join, acq, T1, o3, nil, true, ...
  Integer, // 42, -7
  String,  // "a.com"
  Colon,
  Dot,
  Comma,
  LParen,
  RParen,
  Slash,
  Error,
};

struct Token {
  TokKind Kind = TokKind::Eof;
  SourceLocation Loc;
  std::string_view Text; // For Ident.
  int64_t IntValue = 0;  // For Integer.
  std::string StrValue;  // For String (unescaped).
};

/// Splits the input into tokens; newlines are significant (they terminate
/// statements).
class TraceLexer {
public:
  TraceLexer(std::string_view Text, DiagnosticEngine &Diags)
      : Cursor(Text), Diags(Diags) {}

  Token next() {
    skipHorizontalSpaceAndComments();
    Token Tok;
    Tok.Loc = Cursor.location();
    if (Cursor.atEnd())
      return Tok; // Eof.

    char C = Cursor.peek();
    if (C == '\n') {
      Cursor.advance();
      Tok.Kind = TokKind::Newline;
      return Tok;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
      return lexIdent();
    if (std::isdigit(static_cast<unsigned char>(C)) ||
        (C == '-' && std::isdigit(static_cast<unsigned char>(Cursor.peekNext()))))
      return lexInteger();
    if (C == '"')
      return lexString();

    Cursor.advance();
    switch (C) {
    case ':':
      Tok.Kind = TokKind::Colon;
      return Tok;
    case '.':
      Tok.Kind = TokKind::Dot;
      return Tok;
    case ',':
      Tok.Kind = TokKind::Comma;
      return Tok;
    case '(':
      Tok.Kind = TokKind::LParen;
      return Tok;
    case ')':
      Tok.Kind = TokKind::RParen;
      return Tok;
    case '/':
      Tok.Kind = TokKind::Slash;
      return Tok;
    default:
      Diags.error(Tok.Loc, std::string("unexpected character '") + C + "'");
      Tok.Kind = TokKind::Error;
      return Tok;
    }
  }

private:
  void skipHorizontalSpaceAndComments() {
    while (!Cursor.atEnd()) {
      char C = Cursor.peek();
      if (C == ' ' || C == '\t' || C == '\r') {
        Cursor.advance();
        continue;
      }
      if (C == '#') {
        while (!Cursor.atEnd() && Cursor.peek() != '\n')
          Cursor.advance();
        continue;
      }
      break;
    }
  }

  Token lexIdent() {
    Token Tok;
    Tok.Loc = Cursor.location();
    size_t Begin = Cursor.offset();
    while (!Cursor.atEnd()) {
      char C = Cursor.peek();
      if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_')
        break;
      Cursor.advance();
    }
    Tok.Kind = TokKind::Ident;
    Tok.Text = Cursor.slice(Begin, Cursor.offset());
    return Tok;
  }

  Token lexInteger() {
    Token Tok;
    Tok.Loc = Cursor.location();
    size_t Begin = Cursor.offset();
    if (Cursor.peek() == '-')
      Cursor.advance();
    while (std::isdigit(static_cast<unsigned char>(Cursor.peek())))
      Cursor.advance();
    std::string_view Text = Cursor.slice(Begin, Cursor.offset());
    Tok.Kind = TokKind::Integer;
    auto [Ptr, Ec] =
        std::from_chars(Text.data(), Text.data() + Text.size(), Tok.IntValue);
    if (Ec != std::errc() || Ptr != Text.data() + Text.size()) {
      Diags.error(Tok.Loc, "integer literal out of range");
      Tok.Kind = TokKind::Error;
    }
    return Tok;
  }

  Token lexString() {
    Token Tok;
    Tok.Loc = Cursor.location();
    Cursor.advance(); // Opening quote.
    std::string Out;
    while (true) {
      if (Cursor.atEnd() || Cursor.peek() == '\n') {
        Diags.error(Tok.Loc, "unterminated string literal");
        Tok.Kind = TokKind::Error;
        return Tok;
      }
      char C = Cursor.advance();
      if (C == '"')
        break;
      if (C == '\\') {
        char Esc = Cursor.advance();
        switch (Esc) {
        case 'n':
          Out.push_back('\n');
          break;
        case 't':
          Out.push_back('\t');
          break;
        case '"':
        case '\\':
          Out.push_back(Esc);
          break;
        default:
          Diags.error(Cursor.location(),
                      std::string("unknown escape sequence '\\") + Esc + "'");
          break;
        }
        continue;
      }
      Out.push_back(C);
    }
    Tok.Kind = TokKind::String;
    Tok.StrValue = std::move(Out);
    return Tok;
  }

  CharCursor Cursor;
  DiagnosticEngine &Diags;
};

/// Recursive-descent parser over the token stream. Recovers at line ends.
class TraceParser {
public:
  TraceParser(std::string_view Text, DiagnosticEngine &Diags)
      : Lexer(Text, Diags), Diags(Diags) {
    Tok = Lexer.next();
  }

  Trace run() {
    Trace Result;
    while (Tok.Kind != TokKind::Eof) {
      if (Tok.Kind == TokKind::Newline) {
        consume();
        continue;
      }
      if (auto E = parseLine())
        Result.append(std::move(*E));
      else
        skipToLineEnd();
    }
    return Result;
  }

private:
  void consume() { Tok = Lexer.next(); }

  void skipToLineEnd() {
    while (Tok.Kind != TokKind::Newline && Tok.Kind != TokKind::Eof)
      consume();
  }

  bool expect(TokKind Kind, const char *What) {
    if (Tok.Kind == Kind) {
      consume();
      return true;
    }
    Diags.error(Tok.Loc, std::string("expected ") + What);
    return false;
  }

  /// Parses an id of shape <Prefix><digits>, e.g. T1, o3, L0, V7.
  std::optional<uint32_t> parsePrefixedId(char Prefix, const char *What) {
    if (Tok.Kind != TokKind::Ident || Tok.Text.size() < 2 ||
        (Tok.Text[0] != Prefix &&
         std::tolower(Tok.Text[0]) != std::tolower(Prefix))) {
      Diags.error(Tok.Loc, std::string("expected ") + What);
      return std::nullopt;
    }
    uint32_t Index = 0;
    std::string_view Digits = Tok.Text.substr(1);
    auto [Ptr, Ec] =
        std::from_chars(Digits.data(), Digits.data() + Digits.size(), Index);
    if (Ec != std::errc() || Ptr != Digits.data() + Digits.size()) {
      Diags.error(Tok.Loc, std::string("expected ") + What);
      return std::nullopt;
    }
    consume();
    return Index;
  }

  /// Parses a thread id like T1 (\p What names the expected form),
  /// rejecting ids at or above ThreadIdLimit.
  std::optional<ThreadId> parseThreadId(const char *What) {
    SourceLocation Loc = Tok.Loc;
    auto Index = parsePrefixedId('T', What);
    if (!Index)
      return std::nullopt;
    if (*Index >= ThreadIdLimit) {
      Diags.error(Loc, "thread id T" + std::to_string(*Index) +
                           " out of range: thread ids must be below " +
                           std::to_string(ThreadIdLimit));
      return std::nullopt;
    }
    return ThreadId(*Index);
  }

  std::optional<Value> parseValue() {
    switch (Tok.Kind) {
    case TokKind::Integer: {
      Value V = Value::integer(Tok.IntValue);
      consume();
      return V;
    }
    case TokKind::String: {
      Value V = Value::string(Tok.StrValue);
      consume();
      return V;
    }
    case TokKind::Ident: {
      std::optional<Value> V;
      if (Tok.Text == "nil")
        V = Value::nil();
      else if (Tok.Text == "true")
        V = Value::boolean(true);
      else if (Tok.Text == "false")
        V = Value::boolean(false);
      if (V) {
        consume();
        return V;
      }
      break;
    }
    default:
      break;
    }
    Diags.error(Tok.Loc, "expected value (integer, string, nil, true, false)");
    return std::nullopt;
  }

  std::optional<Event> parseLine() {
    auto Thread = parseThreadId("thread id like T1");
    if (!Thread)
      return std::nullopt;
    ThreadId Self = *Thread;
    if (!expect(TokKind::Colon, "':' after thread id"))
      return std::nullopt;

    if (Tok.Kind != TokKind::Ident) {
      Diags.error(Tok.Loc, "expected statement keyword or object id");
      return std::nullopt;
    }

    std::string_view Keyword = Tok.Text;
    if (Keyword == "fork" || Keyword == "join") {
      consume();
      auto Target = parseThreadId("thread id like T2");
      if (!Target)
        return std::nullopt;
      return Keyword == "fork" ? Event::fork(Self, *Target)
                               : Event::join(Self, *Target);
    }
    if (Keyword == "acq" || Keyword == "rel") {
      consume();
      auto Lock = parsePrefixedId('L', "lock id like L0");
      if (!Lock)
        return std::nullopt;
      return Keyword == "acq" ? Event::acquire(Self, LockId(*Lock))
                              : Event::release(Self, LockId(*Lock));
    }
    if (Keyword == "txbegin") {
      consume();
      return Event::txBegin(Self);
    }
    if (Keyword == "txend") {
      consume();
      return Event::txEnd(Self);
    }
    if (Keyword == "read" || Keyword == "write") {
      consume();
      auto Var = parsePrefixedId('V', "memory location id like V3");
      if (!Var)
        return std::nullopt;
      return Keyword == "read" ? Event::read(Self, VarId(*Var))
                               : Event::write(Self, VarId(*Var));
    }
    return parseInvoke(Self);
  }

  std::optional<Event> parseInvoke(ThreadId Self) {
    auto Obj = parsePrefixedId('o', "object id like o1");
    if (!Obj)
      return std::nullopt;
    if (!expect(TokKind::Dot, "'.' after object id"))
      return std::nullopt;
    if (Tok.Kind != TokKind::Ident) {
      Diags.error(Tok.Loc, "expected method name");
      return std::nullopt;
    }
    Symbol Method = symbol(Tok.Text);
    consume();
    if (!expect(TokKind::LParen, "'(' after method name"))
      return std::nullopt;

    std::vector<Value> Args;
    if (Tok.Kind != TokKind::RParen) {
      do {
        auto V = parseValue();
        if (!V)
          return std::nullopt;
        Args.push_back(*V);
      } while (Tok.Kind == TokKind::Comma && (consume(), true));
    }
    if (!expect(TokKind::RParen, "')' after arguments"))
      return std::nullopt;

    std::vector<Value> Rets;
    while (Tok.Kind == TokKind::Slash) {
      consume();
      auto V = parseValue();
      if (!V)
        return std::nullopt;
      Rets.push_back(*V);
    }

    if (Tok.Kind != TokKind::Newline && Tok.Kind != TokKind::Eof) {
      Diags.error(Tok.Loc, "expected end of line after action");
      return std::nullopt;
    }
    return Event::invoke(
        Self, Action(ObjectId(*Obj), Method, std::move(Args), std::move(Rets)));
  }

  TraceLexer Lexer;
  DiagnosticEngine &Diags;
  Token Tok;
};

} // namespace

std::optional<Trace> crd::parseTrace(std::string_view Text,
                                     DiagnosticEngine &Diags) {
  TraceParser Parser(Text, Diags);
  Trace Result = Parser.run();
  if (Diags.hasErrors())
    return std::nullopt;
  return Result;
}

std::optional<Event> crd::parseTraceLine(std::string_view Line, uint32_t LineNo,
                                         DiagnosticEngine &Diags) {
  // Parse against a local engine, then re-emit with the caller's line
  // number: the parser believes every buffer starts at line 1.
  DiagnosticEngine Local;
  TraceParser Parser(Line, Local);
  Trace Result = Parser.run();
  for (const Diagnostic &D : Local.all()) {
    SourceLocation Loc = D.Loc;
    if (Loc.isValid())
      Loc.Line += LineNo - 1;
    switch (D.Level) {
    case Diagnostic::Severity::Error:
      Diags.error(Loc, D.Message);
      break;
    case Diagnostic::Severity::Warning:
      Diags.warning(Loc, D.Message);
      break;
    case Diagnostic::Severity::Note:
      Diags.note(Loc, D.Message);
      break;
    }
  }
  if (Local.hasErrors() || Result.empty())
    return std::nullopt;
  return Result[0];
}
