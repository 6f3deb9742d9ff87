/**
 * @file
 * QuantumNAS baseline (Wang et al., HPCA 2022) as described in the
 * paper's Secs. 1-2: train a SuperCircuit with weight sharing, then run
 * an evolutionary *circuit-mapping co-search* — genomes pair a
 * subcircuit configuration with a logical-to-physical qubit mapping —
 * scoring candidates with inherited parameters on the noisy device.
 * Because genome mappings are explicit, non-adjacent gates are routed
 * with SWAP chains that respect the genome's placement (this is the
 * hardware-inefficiency Elivagar's Table 5 measures).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/supercircuit.hpp"
#include "device/device.hpp"
#include "qml/dataset.hpp"

namespace elv::base {

/** Evolutionary co-search settings. */
struct QuantumNasConfig
{
    int population = 16;
    int generations = 6;
    /** Parameter budget of searched subcircuits. */
    int target_params = 20;
    /** Validation samples per fitness evaluation. */
    int valid_samples = 24;
    std::uint64_t seed = 0;
};

/** Co-search output. */
struct QuantumNasResult
{
    /** Best physical circuit (genome mapping applied, SWAPs inserted). */
    circ::Circuit best_physical;
    /** Its configuration and mapping. */
    SuperConfig best_config;
    std::vector<int> best_mapping;
    /** Inherited parameters of the best subcircuit. */
    std::vector<double> inherited_params;
    /** Noisy validation accuracy of the winner. */
    double best_fitness = 0.0;
    /** Device executions spent on fitness evaluations. */
    std::uint64_t search_executions = 0;
};

/**
 * Route a logical circuit onto the device under a FIXED logical ->
 * physical mapping: non-adjacent 2-qubit gates get SWAP chains along
 * shortest paths (the mapping evolves, the router does not). Exposed for
 * tests and for the Table 5 comparison.
 */
circ::Circuit route_with_fixed_mapping(const circ::Circuit &logical,
                                       const dev::Topology &topology,
                                       const std::vector<int> &mapping);

/**
 * Run the evolutionary co-search against a trained SuperCircuit.
 * `shared_params` is the weight-shared store from train_supercircuit.
 */
QuantumNasResult quantumnas_search(const SuperCircuit &super,
                                   const std::vector<double> &shared_params,
                                   const dev::Device &device,
                                   const qml::Dataset &valid,
                                   const QuantumNasConfig &config);

} // namespace elv::base
