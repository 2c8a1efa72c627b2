//===- comm/LiftedRoutes.cpp - The comm drivers' route provider ----------===//

#include "comm/LiftedRoutes.h"

#include "emulation/SdcEmulation.h"

#include <stdexcept>

using namespace scg;

RouteArena scg::liftedRoutes(const SuperCayleyGraph &Host,
                             std::span<const Permutation> Rels) {
  if (!supportsStarEmulation(Host))
    throw std::invalid_argument(Host.name() +
                                " has no star emulation to lift routes by");
  // The drivers dedupe by relative label themselves, so a cache could only
  // add shard-lock traffic.
  QueryEngineOptions Opts;
  Opts.CacheCapacity = 0;
  return QueryEngine(Host, Opts).routeBatchRelative(Rels);
}
