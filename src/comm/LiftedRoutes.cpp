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
  return QueryEngine(Host).routeBatchRelative(Rels);
}
