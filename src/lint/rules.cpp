/**
 * @file
 * Built-in circuit lint rules. Each rule is a free function appended
 * to the Linter registry by register_builtin_rules(); rules read a
 * CircuitView (which may describe IR the Circuit builder API would
 * refuse to construct) and must tolerate arbitrary garbage in every
 * field without crashing — that is the point.
 */
#include <algorithm>
#include <sstream>
#include <vector>

#include "lint/dataflow.hpp"
#include "lint/lint.hpp"

namespace elv::lint {

namespace detail {
void register_builtin_rules(Linter &linter);
} // namespace detail

namespace {

using circ::GateKind;
using circ::Op;
using circ::ParamRole;

/** "q3" / "q3,q7" operand rendering for messages. */
std::string
operands(const Op &op)
{
    std::ostringstream oss;
    oss << "q" << op.qubits[0];
    if (op.num_qubits() == 2)
        oss << ",q" << op.qubits[1];
    return oss.str();
}

/** Render a compact index list, eliding long tails. */
std::string
index_list(const std::vector<int> &indices)
{
    std::ostringstream oss;
    const std::size_t shown = std::min<std::size_t>(indices.size(), 8);
    for (std::size_t i = 0; i < shown; ++i)
        oss << (i ? "," : "") << indices[i];
    if (indices.size() > shown)
        oss << ",... (" << indices.size() << " total)";
    return oss.str();
}

/**
 * qubit-bounds: every operand indexes a declared qubit and the arity
 * slots agree with the gate kind (unused slot = -1, 2-qubit operands
 * distinct). The amplitude-embedding pseudo-op carries no operands.
 */
void
rule_qubit_bounds(const CircuitView &c, const LintOptions &, Report &out)
{
    if (c.num_qubits <= 0) {
        out.add(Severity::Error, "qubit-bounds", -1,
                "circuit declares no qubits");
        return;
    }
    for (std::size_t i = 0; i < c.ops.size(); ++i) {
        const Op &op = c.ops[i];
        const int at = static_cast<int>(i);
        if (op.kind == GateKind::AmpEmbed) {
            if (op.qubits[0] != -1 || op.qubits[1] != -1)
                out.add(Severity::Error, "qubit-bounds", at,
                        "amplitude embedding acts on all qubits and must "
                        "not name operands");
            continue;
        }
        const int arity = op.num_qubits();
        if (op.qubits[0] < 0 || op.qubits[0] >= c.num_qubits) {
            std::ostringstream oss;
            oss << gate_name(op.kind) << " operand q" << op.qubits[0]
                << " outside [0, " << c.num_qubits << ")";
            out.add(Severity::Error, "qubit-bounds", at, oss.str());
        }
        if (arity == 1 && op.qubits[1] != -1) {
            std::ostringstream oss;
            oss << "1-qubit " << gate_name(op.kind)
                << " carries a second operand q" << op.qubits[1];
            out.add(Severity::Error, "qubit-bounds", at, oss.str());
        }
        if (arity == 2) {
            if (op.qubits[1] < 0 || op.qubits[1] >= c.num_qubits) {
                std::ostringstream oss;
                oss << gate_name(op.kind) << " operand q" << op.qubits[1]
                    << " outside [0, " << c.num_qubits << ")";
                out.add(Severity::Error, "qubit-bounds", at, oss.str());
            } else if (op.qubits[1] == op.qubits[0]) {
                std::ostringstream oss;
                oss << "2-qubit " << gate_name(op.kind)
                    << " with identical operands " << operands(op);
                out.add(Severity::Error, "qubit-bounds", at, oss.str());
            }
        }
    }
}

/**
 * param-binding: variational gates own valid, exactly-once parameter
 * slots; embedding gates carry a feature index and no trainable slot;
 * fixed-role gates carry neither; no parametric gate kind is left
 * without a binding (a dangling symbol resolves to angle 0 at run
 * time, silently).
 */
void
rule_param_binding(const CircuitView &c, const LintOptions &, Report &out)
{
    std::vector<int> bound(
        static_cast<std::size_t>(std::max(0, c.num_params)), 0);
    for (std::size_t i = 0; i < c.ops.size(); ++i) {
        const Op &op = c.ops[i];
        const int at = static_cast<int>(i);
        switch (op.role) {
          case ParamRole::Variational: {
            if (!gate_is_parametric(op.kind)) {
                out.add(Severity::Error, "param-binding", at,
                        "variational role on non-parametric " +
                            gate_name(op.kind));
                break;
            }
            const int np = op.num_params();
            if (op.param_index < 0) {
                out.add(Severity::Error, "param-binding", at,
                        "variational " + gate_name(op.kind) +
                            " has no parameter slot");
            } else if (op.param_index + np > c.num_params) {
                std::ostringstream oss;
                oss << "parameter slot " << op.param_index << "+" << np
                    << " exceeds the declared parameter count "
                    << c.num_params;
                out.add(Severity::Error, "param-binding", at, oss.str());
            } else {
                for (int k = 0; k < np; ++k)
                    ++bound[static_cast<std::size_t>(op.param_index + k)];
            }
            if (op.data_index != -1 || op.data_index2 != -1)
                out.add(Severity::Error, "param-binding", at,
                        "variational gate carries embedding metadata");
            break;
          }
          case ParamRole::Embedding: {
            if (op.kind == GateKind::AmpEmbed)
                break;
            if (op.num_params() != 1)
                out.add(Severity::Error, "param-binding", at,
                        "embedding role needs a 1-parameter gate, got " +
                            gate_name(op.kind));
            if (op.data_index < 0)
                out.add(Severity::Error, "param-binding", at,
                        "embedding gate has no feature index");
            if (op.param_index != -1)
                out.add(Severity::Error, "param-binding", at,
                        "embedding gate retains trainable parameter "
                        "slot " +
                            std::to_string(op.param_index));
            break;
          }
          case ParamRole::None: {
            if (gate_is_parametric(op.kind))
                out.add(Severity::Error, "param-binding", at,
                        "parametric " + gate_name(op.kind) +
                            " has no binding (dangling symbol, resolves "
                            "to angle 0)");
            else if (op.param_index != -1 || op.data_index != -1 ||
                     op.data_index2 != -1)
                out.add(Severity::Error, "param-binding", at,
                        "fixed gate carries stale binding metadata");
            break;
          }
        }
    }
    for (std::size_t s = 0; s < bound.size(); ++s) {
        if (bound[s] > 1) {
            std::ostringstream oss;
            oss << "parameter slot " << s << " bound by " << bound[s]
                << " gates (must be exactly one)";
            out.add(Severity::Error, "param-binding", -1, oss.str());
        }
    }
}

/**
 * embedding-order: an amplitude embedding prepares the initial state
 * and must be the first op, unique, and the circuit's only embedding.
 * With require_embedding_prefix, every data-embedding gate must come
 * before the first variational gate (fixed-embedding templates;
 * Elivagar's searched candidates interleave the two on purpose, so
 * the prefix check is opt-in).
 */
void
rule_embedding_order(const CircuitView &c, const LintOptions &options,
                     Report &out)
{
    int first_variational = -1;
    int gate_embeddings = 0;
    std::vector<int> amp_positions;
    for (std::size_t i = 0; i < c.ops.size(); ++i) {
        const Op &op = c.ops[i];
        if (op.kind == GateKind::AmpEmbed)
            amp_positions.push_back(static_cast<int>(i));
        else if (op.role == ParamRole::Embedding)
            ++gate_embeddings;
        if (op.role == ParamRole::Variational && first_variational < 0)
            first_variational = static_cast<int>(i);
    }
    if (!amp_positions.empty()) {
        if (amp_positions[0] != 0) {
            std::ostringstream oss;
            oss << "amplitude embedding at op " << amp_positions[0]
                << " (must be op 0: it overwrites the prepared state)";
            out.add(Severity::Error, "embedding-order", amp_positions[0],
                    oss.str());
        }
        if (amp_positions.size() > 1)
            out.add(Severity::Error, "embedding-order", amp_positions[1],
                    "multiple amplitude embeddings");
        if (gate_embeddings > 0)
            out.add(Severity::Error, "embedding-order", -1,
                    "amplitude embedding mixed with gate embeddings");
    }
    if (options.require_embedding_prefix && first_variational >= 0) {
        for (std::size_t i = 0; i < c.ops.size(); ++i) {
            const Op &op = c.ops[i];
            if (op.role == ParamRole::Embedding &&
                op.kind != GateKind::AmpEmbed &&
                static_cast<int>(i) > first_variational) {
                std::ostringstream oss;
                oss << "data embedding at op " << i
                    << " follows the variational gate at op "
                    << first_variational
                    << " (embedding prefix required)";
                out.add(Severity::Error, "embedding-order",
                        static_cast<int>(i), oss.str());
            }
        }
    }
}

/**
 * connectivity: with a target device, every 2-qubit gate must act on
 * a coupling-map edge — the post-SABRE feasibility check. Skipped
 * without LintOptions::device.
 */
void
rule_connectivity(const CircuitView &c, const LintOptions &options,
                  Report &out)
{
    if (!options.device)
        return;
    const dev::Topology &topo = options.device->topology;
    if (c.num_qubits > topo.num_qubits()) {
        std::ostringstream oss;
        oss << "circuit declares " << c.num_qubits << " qubits but "
            << options.device->name << " has " << topo.num_qubits();
        out.add(Severity::Error, "connectivity", -1, oss.str());
    }
    for (std::size_t i = 0; i < c.ops.size(); ++i) {
        const Op &op = c.ops[i];
        if (op.kind == GateKind::AmpEmbed || op.num_qubits() != 2)
            continue;
        const int a = op.qubits[0], b = op.qubits[1];
        if (a < 0 || b < 0 || a >= topo.num_qubits() ||
            b >= topo.num_qubits() || a == b)
            continue; // qubit-bounds owns operand validity
        if (!topo.has_edge(a, b)) {
            std::ostringstream oss;
            oss << gate_name(op.kind) << " " << operands(op)
                << " is not a coupling edge of " << options.device->name;
            out.add(Severity::Error, "connectivity", static_cast<int>(i),
                    oss.str());
        }
    }
}

/**
 * clifford-replica: a circuit presented as a Clifford replica must be
 * pure Clifford — every rotation snapped to a pi/2 multiple and
 * lowered to fixed {H,S,Sdg,X,Y,Z} sequences, no surviving parametric
 * gates, no amplitude embedding. Opt-in via expect_clifford_replica.
 */
void
rule_clifford_replica(const CircuitView &c, const LintOptions &options,
                      Report &out)
{
    if (!options.expect_clifford_replica)
        return;
    for (std::size_t i = 0; i < c.ops.size(); ++i) {
        const Op &op = c.ops[i];
        const int at = static_cast<int>(i);
        if (op.kind == GateKind::AmpEmbed)
            out.add(Severity::Error, "clifford-replica", at,
                    "amplitude embedding inside a Clifford replica");
        else if (op.role != ParamRole::None ||
                 gate_is_parametric(op.kind))
            out.add(Severity::Error, "clifford-replica", at,
                    "unsnapped parametric " + gate_name(op.kind) +
                        " (replica angles must be pi/2 multiples "
                        "lowered to Clifford gates)");
        else if (!gate_is_clifford(op.kind))
            out.add(Severity::Error, "clifford-replica", at,
                    "non-Clifford fixed gate " + gate_name(op.kind));
    }
}

/**
 * measurement: the measured set indexes declared qubits without
 * duplicates. The IR is measure-terminal (measurement is a final set,
 * not an op), so "no gate after measure" is enforced structurally;
 * this rule guards the set itself and warns when nothing is measured
 * (a classifier circuit without output).
 */
void
rule_measurement(const CircuitView &c, const LintOptions &, Report &out)
{
    if (c.measured.empty())
        out.add(Severity::Warning, "measurement", -1,
                "circuit measures no qubits");
    std::vector<int> seen;
    for (int q : c.measured) {
        if (q < 0 || q >= c.num_qubits) {
            std::ostringstream oss;
            oss << "measured qubit q" << q << " outside [0, "
                << c.num_qubits << ")";
            out.add(Severity::Error, "measurement", -1, oss.str());
            continue;
        }
        if (std::find(seen.begin(), seen.end(), q) != seen.end()) {
            std::ostringstream oss;
            oss << "qubit q" << q << " measured more than once";
            out.add(Severity::Error, "measurement", -1, oss.str());
        } else {
            seen.push_back(q);
        }
    }
}

/**
 * dead-code (warnings): qubits no op or measurement touches, and
 * declared parameter slots no variational gate binds (never trained —
 * the optimizer moves them but the loss never feels it). Findings are
 * aggregated into one diagnostic each so device-sized circuits (a
 * 5-qubit candidate on a 127-qubit register is routine) stay cheap to
 * lint.
 */
void
rule_dead_code(const CircuitView &c, const LintOptions &, Report &out)
{
    if (c.num_qubits <= 0)
        return;
    std::vector<char> touched(static_cast<std::size_t>(c.num_qubits), 0);
    std::vector<int> bound(
        static_cast<std::size_t>(std::max(0, c.num_params)), 0);
    for (const Op &op : c.ops) {
        if (op.kind == GateKind::AmpEmbed) {
            std::fill(touched.begin(), touched.end(), 1);
        } else {
            for (int k = 0; k < op.num_qubits(); ++k) {
                const int q = op.qubits[static_cast<std::size_t>(k)];
                if (q >= 0 && q < c.num_qubits)
                    touched[static_cast<std::size_t>(q)] = 1;
            }
        }
        if (op.role == ParamRole::Variational && op.param_index >= 0) {
            const int np = op.num_params();
            for (int k = 0; k < np && op.param_index + k < c.num_params;
                 ++k)
                ++bound[static_cast<std::size_t>(op.param_index + k)];
        }
    }
    for (int q : c.measured)
        if (q >= 0 && q < c.num_qubits)
            touched[static_cast<std::size_t>(q)] = 1;

    std::vector<int> unused;
    for (int q = 0; q < c.num_qubits; ++q)
        if (!touched[static_cast<std::size_t>(q)])
            unused.push_back(q);
    if (!unused.empty())
        out.add(Severity::Warning, "dead-code", -1,
                "unused qubits: " + index_list(unused));

    std::vector<int> untrained;
    for (int s = 0; s < c.num_params; ++s)
        if (bound[static_cast<std::size_t>(s)] == 0)
            untrained.push_back(s);
    if (!untrained.empty())
        out.add(Severity::Warning, "dead-code", -1,
                "never-trained parameter slots: " +
                    index_list(untrained));
}

/**
 * dead-lightcone (warnings): ops outside the backward measurement
 * lightcone — their effects are traced out of every measured marginal,
 * so the simulators pay full price for provably-invisible structure.
 * Aggregated into one diagnostic (`lint --fix` elides the ops; see
 * lint/dataflow.hpp). Skipped when nothing is measured: the
 * measurement rule owns that finding, and an empty cone would indict
 * every op for the wrong reason.
 */
void
rule_dead_lightcone(const CircuitView &c, const LintOptions &, Report &out)
{
    if (c.measured.empty() || c.ops.empty())
        return;
    const LightconeAnalysis analysis = analyze_lightcone(c);
    const std::vector<int> dead = analysis.dead_ops();
    if (dead.empty())
        return;
    std::ostringstream oss;
    oss << "ops outside the measurement lightcone (traced out, "
           "simulated for nothing): "
        << index_list(dead) << "; `lint --fix` elides them";
    out.add(Severity::Warning, "dead-lightcone", dead[0], oss.str());
}

/**
 * dead-parameter (warnings): variational slots whose every binding
 * rotation lies outside the lightcone — the optimizer moves them, the
 * parameter-shift bill charges 2 executions per step for them, and the
 * loss never feels it. Never-bound slots are dead-code's finding; this
 * rule covers bound-but-invisible ones.
 */
void
rule_dead_parameter(const CircuitView &c, const LintOptions &, Report &out)
{
    if (c.measured.empty() || c.num_params <= 0)
        return;
    const LightconeAnalysis analysis = analyze_lightcone(c);
    std::vector<int> bound(
        static_cast<std::size_t>(c.num_params), 0);
    for (const Op &op : c.ops) {
        if (op.role != ParamRole::Variational || op.param_index < 0)
            continue;
        for (int k = 0; k < op.num_params(); ++k)
            if (op.param_index + k < c.num_params)
                ++bound[static_cast<std::size_t>(op.param_index + k)];
    }
    std::vector<int> dead;
    for (int s = 0; s < c.num_params; ++s)
        if (bound[static_cast<std::size_t>(s)] > 0 &&
            !analysis.live_params[static_cast<std::size_t>(s)])
            dead.push_back(s);
    if (dead.empty())
        return;
    std::ostringstream oss;
    oss << "parameter slots bound only by out-of-lightcone rotations "
           "(zero gradient signal): "
        << index_list(dead);
    out.add(Severity::Warning, "dead-parameter", -1, oss.str());
}

/**
 * clifford-region (notes): const/Clifford structure worth annotating —
 * a fully fixed-Clifford circuit is exactly replayable on the
 * stabilizer fast path, and a nonempty Clifford/param-free prefix
 * marks state a cache could precompute (sim::FusedProgram carries the
 * compiled-level counterpart in const_prefix_source_ops()).
 */
void
rule_clifford_region(const CircuitView &c, const LintOptions &, Report &out)
{
    if (c.ops.empty())
        return;
    const CliffordRegions regions = analyze_clifford_regions(c);
    if (regions.fully_clifford) {
        std::ostringstream oss;
        oss << "entire circuit (" << c.ops.size()
            << " ops) is fixed Clifford: stabilizer-simulable exactly";
        out.add(Severity::Note, "clifford-region", -1, oss.str());
        return;
    }
    if (regions.clifford_prefix == 0 && regions.clifford_suffix == 0)
        return;
    std::ostringstream oss;
    oss << "const-Clifford region: prefix " << regions.clifford_prefix
        << " op(s), suffix " << regions.clifford_suffix << " op(s)";
    if (regions.param_free_prefix > regions.clifford_prefix)
        oss << "; parameter-free prefix extends to "
            << regions.param_free_prefix << " op(s)";
    oss << " (stabilizer fast path / prefix-state cache eligible)";
    out.add(Severity::Note, "clifford-region", -1, oss.str());
}

} // namespace

namespace detail {

void
register_builtin_rules(Linter &linter)
{
    linter.register_rule({"qubit-bounds", Severity::Error,
                          "qubit indices in range, gate arity slots "
                          "consistent"},
                         rule_qubit_bounds);
    linter.register_rule({"param-binding", Severity::Error,
                          "every parameter slot bound exactly once, no "
                          "dangling symbols"},
                         rule_param_binding);
    linter.register_rule({"embedding-order", Severity::Error,
                          "amplitude embedding first and alone; optional "
                          "embedding-prefix ordering"},
                         rule_embedding_order);
    linter.register_rule({"connectivity", Severity::Error,
                          "every 2-qubit gate on a device coupling edge "
                          "(post-SABRE feasibility)"},
                         rule_connectivity);
    linter.register_rule({"clifford-replica", Severity::Error,
                          "replicas are pure Clifford (angles snapped "
                          "to pi/2 multiples)"},
                         rule_clifford_replica);
    linter.register_rule({"measurement", Severity::Error,
                          "measured set in range and duplicate-free; "
                          "warns on empty"},
                         rule_measurement);
    linter.register_rule({"dead-code", Severity::Warning,
                          "unused qubits and never-trained parameters"},
                         rule_dead_code);
    linter.register_rule({"dead-lightcone", Severity::Warning,
                          "ops outside the backward measurement "
                          "lightcone (traced out; --fix elides)"},
                         rule_dead_lightcone);
    linter.register_rule({"dead-parameter", Severity::Warning,
                          "parameter slots bound only by "
                          "out-of-lightcone rotations"},
                         rule_dead_parameter);
    linter.register_rule({"clifford-region", Severity::Note,
                          "const/Clifford prefixes and suffixes "
                          "(stabilizer fast path annotation)"},
                         rule_clifford_region);
}

} // namespace detail

} // namespace elv::lint
