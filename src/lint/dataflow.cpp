#include "lint/dataflow.hpp"

#include <algorithm>

namespace elv::lint {

using circ::GateKind;
using circ::Op;
using circ::ParamRole;

namespace {

/** A fixed member of the Clifford group (no run-time angles at all). */
bool
fixed_clifford(const Op &op)
{
    return op.kind != GateKind::AmpEmbed && op.role == ParamRole::None &&
           gate_is_clifford(op.kind);
}

/** An op with no variational binding (constant across training steps). */
bool
param_free(const Op &op)
{
    return op.role != ParamRole::Variational;
}

} // namespace

std::vector<int>
LightconeAnalysis::dead_ops() const
{
    std::vector<int> dead;
    for (std::size_t i = 0; i < live_ops.size(); ++i)
        if (!live_ops[i])
            dead.push_back(static_cast<int>(i));
    return dead;
}

std::vector<int>
LightconeAnalysis::dead_params() const
{
    std::vector<int> dead;
    for (std::size_t i = 0; i < live_params.size(); ++i)
        if (!live_params[i])
            dead.push_back(static_cast<int>(i));
    return dead;
}

LightconeAnalysis
analyze_lightcone(const CircuitView &view)
{
    LightconeAnalysis analysis;
    analysis.no_measurements = view.measured.empty();
    analysis.live_ops.assign(view.ops.size(), 0);
    std::vector<char> &cone = analysis.live_qubits;
    cone.assign(static_cast<std::size_t>(std::max(0, view.num_qubits)), 0);
    std::vector<char> &slots = analysis.live_params;
    slots.assign(static_cast<std::size_t>(std::max(0, view.num_params)), 0);
    auto in_cone = [&cone](int q) {
        return q >= 0 && static_cast<std::size_t>(q) < cone.size() &&
               cone[static_cast<std::size_t>(q)];
    };
    auto pull = [&cone](int q) {
        if (q >= 0 && static_cast<std::size_t>(q) < cone.size())
            cone[static_cast<std::size_t>(q)] = 1;
    };
    for (int q : view.measured)
        pull(q);

    // Visiting op i, `cone` holds the qubits whose state after op i
    // still reaches a measurement. An op is live iff it touches the
    // cone there; a live op pulls every operand in (2-qubit gates carry
    // influence both ways — phase kickback makes even a "control"
    // qubit's reduced state gate-dependent), and a live variational op
    // keeps its parameter slots alive.
    for (std::size_t i = view.ops.size(); i-- > 0;) {
        const Op &op = view.ops[i];
        bool live = false;
        if (op.kind == GateKind::AmpEmbed) {
            live = std::find(cone.begin(), cone.end(), 1) != cone.end();
            if (live)
                std::fill(cone.begin(), cone.end(), 1);
        } else {
            const int arity = op.num_qubits();
            for (int k = 0; k < arity; ++k)
                live |= in_cone(op.qubits[static_cast<std::size_t>(k)]);
            if (live)
                for (int k = 0; k < arity; ++k)
                    pull(op.qubits[static_cast<std::size_t>(k)]);
        }
        if (!live)
            continue;
        analysis.live_ops[i] = 1;
        if (op.role != ParamRole::Variational)
            continue;
        for (int k = 0; k < op.num_params(); ++k) {
            const int s = op.param_index + k;
            if (s >= 0 && static_cast<std::size_t>(s) < slots.size())
                slots[static_cast<std::size_t>(s)] = 1;
        }
    }
    return analysis;
}

CliffordRegions
analyze_clifford_regions(const CircuitView &view)
{
    // "Still inside the prefix" is a property of op positions, so one
    // scan per direction settles it.
    CliffordRegions regions;
    const std::size_t n = view.ops.size();
    std::size_t i = 0;
    while (i < n && fixed_clifford(view.ops[i]))
        ++i;
    regions.clifford_prefix = static_cast<int>(i);
    std::size_t j = n;
    while (j > i && fixed_clifford(view.ops[j - 1]))
        --j;
    regions.clifford_suffix = static_cast<int>(n - j);
    std::size_t k = 0;
    while (k < n && param_free(view.ops[k]))
        ++k;
    regions.param_free_prefix = static_cast<int>(k);
    regions.fully_clifford =
        n > 0 && regions.clifford_prefix == static_cast<int>(n);
    regions.param_free = regions.param_free_prefix == static_cast<int>(n);
    return regions;
}

FixResult
elide_dead_structure(const circ::Circuit &circuit)
{
    FixResult result;
    const LightconeAnalysis analysis =
        analyze_lightcone(view_of(circuit));
    const std::vector<int> dead = analysis.dead_ops();
    if (analysis.no_measurements || dead.empty() ||
        dead.size() == circuit.ops().size()) {
        result.circuit = circuit;
        result.param_map.resize(
            static_cast<std::size_t>(circuit.num_params()));
        for (std::size_t s = 0; s < result.param_map.size(); ++s)
            result.param_map[s] = static_cast<int>(s);
        return result;
    }

    // Dense renumbering in op order over the surviving variational
    // ops — the only slot layout the native text format round-trips.
    // The register keeps every qubit up to the highest one a kept op
    // or the measurement uses: trailing qubits go, and no used qubit
    // is relabeled.
    result.param_map.assign(
        static_cast<std::size_t>(circuit.num_params()), -1);
    int next = 0;
    int width = 0;
    for (int q : circuit.measured())
        width = std::max(width, q + 1);
    for (std::size_t i = 0; i < circuit.ops().size(); ++i) {
        const Op &op = circuit.ops()[i];
        if (!analysis.live_ops[i])
            continue;
        if (op.kind == GateKind::AmpEmbed)
            width = circuit.num_qubits();
        for (int k = 0; k < op.num_qubits(); ++k)
            width = std::max(width,
                             op.qubits[static_cast<std::size_t>(k)] + 1);
        if (op.role != ParamRole::Variational || op.param_index < 0)
            continue;
        for (int k = 0; k < op.num_params(); ++k) {
            const int s = op.param_index + k;
            if (s < circuit.num_params() &&
                result.param_map[static_cast<std::size_t>(s)] < 0)
                result.param_map[static_cast<std::size_t>(s)] = next++;
        }
    }

    circ::Circuit fixed(width);
    for (std::size_t i = 0; i < circuit.ops().size(); ++i) {
        if (!analysis.live_ops[i])
            continue;
        Op op = circuit.ops()[i];
        if (op.role == ParamRole::Variational && op.param_index >= 0 &&
            op.param_index < circuit.num_params())
            op.param_index = result.param_map[static_cast<std::size_t>(
                op.param_index)];
        fixed.append_op(op);
    }
    fixed.declare_params(next);
    fixed.set_measured(circuit.measured());
    result.circuit = std::move(fixed);
    result.ops_elided = dead.size();
    result.params_elided = static_cast<std::size_t>(
        std::max(0, circuit.num_params() - next));
    return result;
}

} // namespace elv::lint
