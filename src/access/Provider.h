//===- access/Provider.h - Access point representations ---------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The access point representation interface ⟨Xo, ηo, Co⟩ of paper Def 4.4,
/// phrased over access-point *classes*:
///
///   * ηo is touches(): the finite set of points touched by an action;
///   * Co is conflictsOf(): for every class, the (finite) list of partner
///     classes; two touched points conflict iff their classes are partners
///     and — when both classes carry values — the carried values are equal.
///
/// Implementations: DictionaryRep (hand-written Fig 7) and TranslatedRep
/// (generated from any ECL specification by the §6.2 translator).
///
//===----------------------------------------------------------------------===//

#ifndef CRD_ACCESS_PROVIDER_H
#define CRD_ACCESS_PROVIDER_H

#include "access/AccessPoint.h"
#include "trace/Action.h"

#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace crd {

/// Abstract access point representation for one object type.
class AccessPointProvider {
public:
  virtual ~AccessPointProvider();

  /// Number of access point classes.
  virtual size_t numClasses() const = 0;

  /// Whether points of \p ClassId carry a value (like the k of o:w:k).
  virtual bool classCarriesValue(uint32_t ClassId) const = 0;

  /// Co restricted to \p ClassId: ids of all classes conflicting with it.
  /// Value-carrying classes only ever conflict with value-carrying classes
  /// (and vice versa), so a conflict lookup is always a finite number of
  /// exact-key probes.
  virtual const std::vector<uint32_t> &conflictsOf(uint32_t ClassId) const = 0;

  /// ηo: appends the points touched by \p A to \p Out. \p Out is not
  /// cleared. Implementations must not emit duplicate points for one action.
  virtual void touches(const Action &A, std::vector<AccessPoint> &Out) const = 0;

  /// Debug name of a class, e.g. "o:w:k". Defaults to "class<N>". The
  /// returned view must stay valid for the provider's lifetime — race
  /// reports keep it as-is instead of copying (a 40+ character translated
  /// class name would otherwise cost one heap allocation per report).
  virtual std::string_view className(uint32_t ClassId) const;

private:
  /// Backing storage for the default className() (lazily materialized;
  /// the mutex makes concurrent serve sessions sharing one provider safe —
  /// the fallback is debug-only and cold).
  mutable std::deque<std::string> FallbackNames;
  mutable std::mutex FallbackNamesMutex;
};

/// Whether two concrete points conflict under \p Provider.
bool pointsConflict(const AccessPointProvider &Provider, const AccessPoint &A,
                    const AccessPoint &B);

/// Whether ηo(A) × ηo(B) intersects Co — i.e. the representation says the
/// two actions do not commute (Def 4.5 reads: representation matches Φ iff
/// this is equivalent to ¬ϕ(A,B)).
bool actionsConflict(const AccessPointProvider &Provider, const Action &A,
                     const Action &B);

} // namespace crd

#endif // CRD_ACCESS_PROVIDER_H
