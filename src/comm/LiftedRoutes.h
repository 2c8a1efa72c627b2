//===- comm/LiftedRoutes.h - The comm drivers' route provider --*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The comm drivers' one route provider: the optimal star route of each
/// relative label Rel = label(src)^-1 o label(dst), lifted through the
/// Theorem 1-3 dimension templates. On a Cayley graph that route serves
/// every pair with the same relative label. The tests hold it to the
/// scalar router in emulation/ScgRouter.h over every label.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_COMM_LIFTEDROUTES_H
#define SCG_COMM_LIFTEDROUTES_H

#include "query/QueryEngine.h"

namespace scg {

/// The lifted star route of every label in \p Rels, indexed like \p Rels,
/// from one cache-less, table-free QueryEngine batch over the global
/// ThreadPool (byte-identical at every thread count). Throws
/// std::invalid_argument unless supportsStarEmulation(Host).
RouteArena liftedRoutes(const SuperCayleyGraph &Host,
                        std::span<const Permutation> Rels);

} // namespace scg

#endif // SCG_COMM_LIFTEDROUTES_H
