/**
 * @file
 * SABRE qubit mapping and routing (Li, Ding, Xie — ASPLOS 2019), built
 * from scratch. This is the routing baseline of Table 5: device-unaware
 * circuits are mapped/routed with SABRE and then compared against
 * Elivagar's natively hardware-efficient circuits.
 *
 * The implementation follows the paper: a front layer of unresolved
 * 2-qubit gates, a lookahead extended set, a distance-based heuristic
 * with per-qubit decay to encourage SWAP diversity, and bidirectional
 * passes to refine the initial mapping.
 */
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "device/topology.hpp"

namespace elv::comp {

/** Output of routing: a physical circuit plus the mappings used. */
struct RouteResult
{
    /** Routed circuit over the device's physical qubits (with SWAPs). */
    circ::Circuit circuit;
    /** Initial logical -> physical mapping. */
    std::vector<int> initial_mapping;
    /** Final logical -> physical mapping (after all SWAPs). */
    std::vector<int> final_mapping;
    /** Number of SWAP gates inserted. */
    int swaps_inserted = 0;
};

/** SABRE search effort (the optimization level sets both). */
struct SabreOptions
{
    /** Bidirectional mapping-refinement passes (forward+backward). */
    int refinement_rounds = 1;
    /** Independent restarts with random initial mappings; best kept. */
    int trials = 1;
};

/**
 * Map and route `logical` onto `topology`. The logical circuit may use
 * any qubit pairs; the result uses only coupled physical pairs, with
 * SWAPs inserted where needed. Measurement qubits are relocated through
 * the final mapping.
 */
RouteResult sabre_route(const circ::Circuit &logical,
                        const dev::Topology &topology, elv::Rng &rng,
                        const SabreOptions &options = {});

} // namespace elv::comp
