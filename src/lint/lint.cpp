#include "lint/lint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

namespace elv::lint {

const char *
severity_name(Severity severity)
{
    switch (severity) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "unknown";
}

std::string
Diagnostic::to_string() const
{
    std::ostringstream oss;
    oss << severity_name(severity) << "[" << rule << "]";
    if (op_index >= 0)
        oss << " op " << op_index;
    oss << ": " << message;
    return oss.str();
}

bool
Report::has_errors() const
{
    return count(Severity::Error) > 0;
}

std::size_t
Report::count(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        if (d.severity == severity)
            ++n;
    return n;
}

bool
Report::fired(const std::string &rule) const
{
    for (const Diagnostic &d : diagnostics)
        if (d.rule == rule)
            return true;
    return false;
}

void
Report::add(Severity severity, std::string rule, int op_index,
            std::string message)
{
    diagnostics.push_back(
        {severity, std::move(rule), op_index, std::move(message)});
}

void
Report::merge(const Report &other)
{
    diagnostics.insert(diagnostics.end(), other.diagnostics.begin(),
                       other.diagnostics.end());
}

std::string
Report::to_string() const
{
    std::ostringstream oss;
    for (const Diagnostic &d : diagnostics)
        oss << d.to_string() << "\n";
    return oss.str();
}

CircuitView
view_of(const circ::Circuit &circuit)
{
    return {circuit.num_qubits(), circuit.num_params(), circuit.ops(),
            circuit.measured()};
}

namespace {

/** True when every entry of the matrix is finite. */
template <typename Mat>
bool
matrix_finite(const Mat &m)
{
    for (const auto &row : m)
        for (const auto &a : row)
            if (!std::isfinite(a.real()) || !std::isfinite(a.imag()))
                return false;
    return true;
}

/** Do two IR ops describe the same gate application and binding? */
bool
ops_equal(const circ::Op &a, const circ::Op &b)
{
    return a.kind == b.kind && a.qubits == b.qubits && a.role == b.role &&
           a.param_index == b.param_index && a.data_index == b.data_index &&
           a.data_index2 == b.data_index2;
}

std::string
describe_op(const circ::Op &op)
{
    std::ostringstream oss;
    oss << gate_name(op.kind);
    if (op.kind != circ::GateKind::AmpEmbed) {
        oss << " q" << op.qubits[0];
        if (op.num_qubits() == 2)
            oss << ",q" << op.qubits[1];
    }
    if (op.role == circ::ParamRole::Variational)
        oss << " theta[" << op.param_index << "]";
    else if (op.role == circ::ParamRole::Embedding &&
             op.kind != circ::GateKind::AmpEmbed)
        oss << " x[" << op.data_index << "]";
    return oss.str();
}

} // namespace

Report
lint_program(const sim::FusedProgram &program, const circ::Circuit &source,
             const LintOptions &)
{
    Report out;
    const char *rule = "fusion-barrier";
    const int n = program.num_qubits();
    if (n != source.num_qubits()) {
        std::ostringstream oss;
        oss << "program has " << n << " qubits, source circuit "
            << source.num_qubits();
        out.add(Severity::Error, rule, -1, oss.str());
    }
    if (program.source_ops() != source.ops().size()) {
        std::ostringstream oss;
        oss << "program compiled from " << program.source_ops()
            << " source ops, circuit has " << source.ops().size();
        out.add(Severity::Error, rule, -1, oss.str());
    }

    // The barrier stream must replay the source's parametric/embedding
    // ops verbatim, in order: those are the ops whose angles are bound
    // at run time, so a dropped, reordered, or re-bound barrier means
    // the program computes a different function than its source.
    std::vector<const circ::Op *> expected;
    std::size_t fixed_ops = 0;
    for (const circ::Op &op : source.ops()) {
        if (op.role != circ::ParamRole::None ||
            op.kind == circ::GateKind::AmpEmbed)
            expected.push_back(&op);
        else
            ++fixed_ops;
    }

    std::size_t barrier_index = 0;
    std::size_t groups = 0;
    for (std::size_t i = 0; i < program.ops().size(); ++i) {
        const sim::FusedOp &fop = program.ops()[i];
        const int at = static_cast<int>(i);
        switch (fop.kind) {
          case sim::FusedOp::Kind::One:
            ++groups;
            if (fop.q0 < 0 || fop.q0 >= n)
                out.add(Severity::Error, rule, at,
                        "fused 1-qubit group on out-of-range qubit q" +
                            std::to_string(fop.q0));
            if (!matrix_finite(fop.m2))
                out.add(Severity::Error, rule, at,
                        "fused 1-qubit group has non-finite matrix "
                        "entries");
            break;
          case sim::FusedOp::Kind::Two:
          case sim::FusedOp::Kind::Permutation:
            ++groups;
            if (fop.q0 < 0 || fop.q0 >= n || fop.q1 < 0 || fop.q1 >= n ||
                fop.q0 == fop.q1)
                out.add(Severity::Error, rule, at,
                        "fused 2-qubit group on invalid pair (q" +
                            std::to_string(fop.q0) + ", q" +
                            std::to_string(fop.q1) + ")");
            if (!matrix_finite(fop.m4))
                out.add(Severity::Error, rule, at,
                        "fused 2-qubit group has non-finite matrix "
                        "entries");
            break;
          case sim::FusedOp::Kind::Barrier: {
            if (fop.op.role == circ::ParamRole::None &&
                fop.op.kind != circ::GateKind::AmpEmbed) {
                out.add(Severity::Error, rule, at,
                        "barrier entry wraps fixed gate " +
                            describe_op(fop.op) +
                            " (fixed gates must fuse)");
                break;
            }
            if (barrier_index >= expected.size()) {
                out.add(Severity::Error, rule, at,
                        "barrier " + describe_op(fop.op) +
                            " has no matching source op");
            } else if (!ops_equal(fop.op, *expected[barrier_index])) {
                out.add(Severity::Error, rule, at,
                        "barrier " + describe_op(fop.op) +
                            " does not match source op " +
                            describe_op(*expected[barrier_index]) +
                            " (stale parameter binding?)");
            }
            ++barrier_index;
            break;
          }
        }
    }
    if (barrier_index < expected.size()) {
        std::ostringstream oss;
        oss << "program drops "
            << (expected.size() - barrier_index)
            << " parametric/embedding barrier(s) of the source "
               "(a fused region spans a barrier)";
        out.add(Severity::Error, rule, -1, oss.str());
    }
    if (groups + static_cast<std::size_t>(program.ops_merged()) !=
        fixed_ops) {
        std::ostringstream oss;
        oss << "fused-group accounting mismatch: " << groups
            << " groups + " << program.ops_merged()
            << " merged != " << fixed_ops << " fixed source ops";
        out.add(Severity::Error, rule, -1, oss.str());
    }
    return out;
}

namespace {

/** Check one per-qubit calibration vector: size, finiteness, range. */
void
check_calibration_vector(const std::vector<double> &values,
                         std::size_t expected, const char *name, double lo,
                         double hi, bool exclusive_lo, Report &out)
{
    if (values.size() != expected) {
        std::ostringstream oss;
        oss << name << " has " << values.size() << " entries, expected "
            << expected;
        out.add(Severity::Error, "device-calibration", -1, oss.str());
        return;
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double v = values[i];
        const bool below = exclusive_lo ? v <= lo : v < lo;
        if (!std::isfinite(v) || below || v > hi) {
            std::ostringstream oss;
            oss << name << "[" << i << "] = " << v << " outside "
                << (exclusive_lo ? "(" : "[") << lo << ", " << hi << "]";
            out.add(Severity::Error, "device-calibration", -1, oss.str());
        }
    }
}

} // namespace

Report
lint_device(const dev::Device &device)
{
    Report out;
    const int n = device.topology.num_qubits();
    const auto &edges = device.topology.edges();

    if (n <= 0)
        out.add(Severity::Error, "device-topology", -1,
                "device declares no qubits");
    std::set<std::pair<int, int>> seen;
    for (std::size_t e = 0; e < edges.size(); ++e) {
        const auto &[a, b] = edges[e];
        std::ostringstream where;
        where << "edge " << e << " (" << a << ", " << b << ")";
        if (a < 0 || a >= n || b < 0 || b >= n) {
            out.add(Severity::Error, "device-topology", -1,
                    where.str() + " references an invalid qubit");
            continue;
        }
        if (a == b) {
            out.add(Severity::Error, "device-topology", -1,
                    where.str() + " is a self-loop");
            continue;
        }
        if (!seen.insert({std::min(a, b), std::max(a, b)}).second)
            out.add(Severity::Error, "device-topology", -1,
                    where.str() + " duplicates an earlier edge");
    }
    if (n > 0 && !device.topology.is_connected())
        out.add(Severity::Warning, "device-topology", -1,
                "coupling graph is disconnected (routing cannot "
                "reach every qubit)");

    const auto nq = static_cast<std::size_t>(std::max(0, n));
    const double inf = std::numeric_limits<double>::infinity();
    check_calibration_vector(device.t1_us, nq, "t1_us", 0.0, inf,
                             true, out);
    check_calibration_vector(device.t2_us, nq, "t2_us", 0.0, inf,
                             true, out);
    check_calibration_vector(device.readout_error, nq,
                             "readout_error", 0.0, 1.0, false, out);
    check_calibration_vector(device.error_1q, nq, "error_1q", 0.0,
                             1.0, false, out);
    check_calibration_vector(device.error_2q, edges.size(),
                             "error_2q", 0.0, 1.0, false, out);
    if (!(device.duration_1q_ns > 0.0) ||
        !(device.duration_2q_ns > 0.0) ||
        !(device.duration_readout_ns > 0.0))
        out.add(Severity::Error, "device-calibration", -1,
                "gate/readout durations must be positive");
    return out;
}

} // namespace elv::lint
