//===- spec/Builtins.cpp - Builtin commutativity specifications -------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "spec/Builtins.h"

#include "BuiltinSpecs.h"
#include "spec/SpecParser.h"

#include <cstdio>
#include <cstdlib>

using namespace crd;

namespace {

/// Parses the builtin spec compiled in from specs/\p File. The files are
/// part of the build, so one that does not parse is fatal.
ObjectSpec parseBuiltin(const char *File, const char *Text) {
  DiagnosticEngine Diags;
  std::optional<ObjectSpec> Spec = parseObjectSpec(Text, Diags);
  if (!Spec) {
    std::fprintf(stderr, "fatal: builtin spec specs/%s does not parse:\n%s",
                 File, Diags.toString().c_str());
    std::abort();
  }
  return std::move(*Spec);
}

} // namespace

const ObjectSpec &crd::dictionarySpec() {
  static const ObjectSpec Spec =
      parseBuiltin("dictionary.spec", builtin_specs::dictionaryText);
  return Spec;
}

const ObjectSpec &crd::setSpec() {
  static const ObjectSpec Spec = parseBuiltin("set.spec", builtin_specs::setText);
  return Spec;
}

const ObjectSpec &crd::counterSpec() {
  static const ObjectSpec Spec =
      parseBuiltin("counter.spec", builtin_specs::counterText);
  return Spec;
}

const ObjectSpec &crd::registerSpec() {
  static const ObjectSpec Spec =
      parseBuiltin("register.spec", builtin_specs::registerText);
  return Spec;
}

const ObjectSpec &crd::queueSpec() {
  static const ObjectSpec Spec =
      parseBuiltin("queue.spec", builtin_specs::queueText);
  return Spec;
}
