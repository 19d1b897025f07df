//===- tools/crd/CliInternal.h - Shared subcommand plumbing -----*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Argument-parsing and spec-loading helpers shared by the subcommand
/// translation units (Cli.cpp, ServeCmd.cpp). Internal to the crd tool —
/// not part of the crd_cli library's public surface.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_TOOLS_CRD_CLIINTERNAL_H
#define CRD_TOOLS_CRD_CLIINTERNAL_H

#include "Cli.h"

#include "spec/Builtins.h"
#include "spec/SpecParser.h"
#include "translate/Translator.h"
#include "wire/WireReader.h"

#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace crd {
namespace cli {
namespace internal {

/// Splits \p Args into `--name[=value]` options and positional operands.
struct ParsedArgs {
  std::vector<std::pair<std::string, std::string>> Options;
  std::vector<std::string> Positional;
  bool Help = false;

  explicit ParsedArgs(const std::vector<std::string> &Args) {
    for (const std::string &A : Args) {
      if (A == "--help" || A == "-h") {
        Help = true;
      } else if (A.size() > 2 && A.compare(0, 2, "--") == 0) {
        size_t Eq = A.find('=');
        if (Eq == std::string::npos)
          Options.emplace_back(A.substr(2), "");
        else
          Options.emplace_back(A.substr(2, Eq - 2), A.substr(Eq + 1));
      } else {
        Positional.push_back(A);
      }
    }
  }

  std::optional<std::string> option(const std::string &Name) const {
    for (const auto &[K, V] : Options)
      if (K == Name)
        return V;
    return std::nullopt;
  }

  /// First option name that is not in \p Known, if any.
  std::optional<std::string>
  unknownOption(std::initializer_list<const char *> Known) const {
    for (const auto &[K, V] : Options) {
      bool Ok = false;
      for (const char *Name : Known)
        Ok |= K == Name;
      if (!Ok)
        return K;
    }
    return std::nullopt;
  }
};

/// Rewrites `--opt value` pairs into the `--opt=value` form ParsedArgs
/// understands, for the option names in \p ValueOpts (spelled with the
/// leading dashes). Only options known to take a value are joined, so
/// positional operands never get swallowed.
inline std::vector<std::string>
joinValueOptions(const std::vector<std::string> &Raw,
                 std::initializer_list<const char *> ValueOpts) {
  std::vector<std::string> Joined;
  Joined.reserve(Raw.size());
  for (size_t I = 0; I != Raw.size(); ++I) {
    bool DidJoin = false;
    for (const char *Opt : ValueOpts)
      if (Raw[I] == Opt && I + 1 != Raw.size()) {
        Joined.push_back(Raw[I] + "=" + Raw[I + 1]);
        ++I;
        DidJoin = true;
        break;
      }
    if (!DidJoin)
      Joined.push_back(Raw[I]);
  }
  return Joined;
}

inline std::optional<uint64_t> parseCount(const std::string &Text) {
  if (Text.empty())
    return std::nullopt;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9' || V > (~0ull - 9) / 10)
      return std::nullopt;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  return V;
}

inline std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Loads and translates the spec named by \p SpecPath (builtin dictionary
/// when empty). Returns nullptr after printing the failure to \p Err.
inline std::unique_ptr<TranslatedRep>
loadProvider(const std::string &SpecPath, std::ostream &Err, int &Exit) {
  DiagnosticEngine Diags;
  const ObjectSpec *Spec = &dictionarySpec();
  std::optional<ObjectSpec> Parsed;
  if (!SpecPath.empty()) {
    auto Text = readFile(SpecPath);
    if (!Text) {
      Err << "error: cannot read spec file '" << SpecPath << "'\n";
      Exit = ExitUsage;
      return nullptr;
    }
    Parsed = parseObjectSpec(*Text, Diags);
    if (!Parsed) {
      Err << SpecPath << ":\n" << Diags.toString();
      Exit = ExitFindings;
      return nullptr;
    }
    Spec = &*Parsed;
  }
  auto Rep = translateSpec(*Spec, Diags);
  if (!Rep) {
    Err << "specification is not translatable:\n" << Diags.toString();
    Exit = ExitFindings;
  }
  return Rep;
}

/// Parses the `--memo[=off|full]` option shared by the analysis
/// subcommands (bare `--memo` means full). Leaves \p Out untouched when
/// the option is absent; returns false after printing a usage error when
/// the value is not in the accepted set.
inline bool parseMemoMode(const ParsedArgs &Args, wire::MemoMode &Out,
                          std::ostream &Err) {
  auto V = Args.option("memo");
  if (!V)
    return true;
  if (V->empty() || *V == "full")
    Out = wire::MemoMode::Full;
  else if (*V == "off")
    Out = wire::MemoMode::Off;
  else {
    Err << "error: unknown --memo mode '" << *V
        << "' (accepted: off, full)\n";
    return false;
  }
  return true;
}

/// Uniform exit-2 diagnostic for an option or mode a verb rejects by
/// design: every mode-restricted flag reports as
///   error: <combination> is not supported by 'crd <verb>': <route>
/// where \p Route names the supported way to get the same effect. Keeps
/// the verbs' restriction messages interchangeable instead of each
/// hand-rolling its own phrasing.
inline int rejectUnsupported(std::ostream &Err, const char *Verb,
                             const std::string &Combination,
                             const std::string &Route) {
  Err << "error: " << Combination << " is not supported by 'crd " << Verb
      << "': " << Route << "\n";
  return ExitUsage;
}

/// The `crd serve` implementation (ServeCmd.cpp).
int runServe(const std::vector<std::string> &Raw, std::ostream &Out,
             std::ostream &Err);

} // namespace internal
} // namespace cli
} // namespace crd

#endif // CRD_TOOLS_CRD_CLIINTERNAL_H
