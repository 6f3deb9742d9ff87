#include "circuit/serialize.hpp"

#include <charconv>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "common/logging.hpp"

namespace elv::circ {

namespace {

/** QASM gate name for a kind (lower case per the spec). */
std::string
qasm_name(GateKind kind)
{
    switch (kind) {
      case GateKind::RX: return "rx";
      case GateKind::RY: return "ry";
      case GateKind::RZ: return "rz";
      case GateKind::U3: return "u3";
      case GateKind::H: return "h";
      case GateKind::S: return "s";
      case GateKind::Sdg: return "sdg";
      case GateKind::X: return "x";
      case GateKind::Y: return "y";
      case GateKind::Z: return "z";
      case GateKind::CX: return "cx";
      case GateKind::CZ: return "cz";
      case GateKind::SWAP: return "swap";
      case GateKind::CRY: return "cry";
      case GateKind::AmpEmbed: break;
    }
    ELV_REQUIRE(false, "gate not expressible in QASM");
    return {};
}

} // namespace

std::string
to_qasm(const Circuit &circuit, const std::vector<double> &params,
        const std::vector<double> &x)
{
    if (circuit.has_amplitude_embedding())
        elv::fatal("amplitude embeddings cannot be exported to QASM");

    std::ostringstream oss;
    oss << "OPENQASM 2.0;\n";
    oss << "include \"qelib1.inc\";\n";
    oss << "qreg q[" << circuit.num_qubits() << "];\n";
    if (!circuit.measured().empty())
        oss << "creg c[" << circuit.measured().size() << "];\n";

    for (const Op &op : circuit.ops()) {
        oss << qasm_name(op.kind);
        const int np = op.num_params();
        if (np > 0) {
            const auto angles = op_angles(op, params, x);
            oss << "(";
            for (int s = 0; s < np; ++s)
                oss << (s ? "," : "") << angles[static_cast<std::size_t>(s)];
            oss << ")";
        }
        oss << " q[" << op.qubits[0] << "]";
        if (op.num_qubits() == 2)
            oss << ",q[" << op.qubits[1] << "]";
        oss << ";\n";
    }
    for (std::size_t b = 0; b < circuit.measured().size(); ++b)
        oss << "measure q[" << circuit.measured()[b] << "] -> c[" << b
            << "];\n";
    return oss.str();
}

std::string
to_text(const Circuit &circuit)
{
    std::ostringstream oss;
    oss << "elv-circuit 1\n";
    oss << "qubits " << circuit.num_qubits() << "\n";
    for (const Op &op : circuit.ops()) {
        switch (op.role) {
          case ParamRole::None:
            oss << "gate " << gate_name(op.kind) << " " << op.qubits[0];
            if (op.num_qubits() == 2)
                oss << " " << op.qubits[1];
            break;
          case ParamRole::Variational:
            oss << "var " << gate_name(op.kind) << " " << op.qubits[0];
            if (op.num_qubits() == 2)
                oss << " " << op.qubits[1];
            break;
          case ParamRole::Embedding:
            if (op.kind == GateKind::AmpEmbed) {
                oss << "ampembed";
                break;
            }
            oss << "embed " << gate_name(op.kind) << " " << op.qubits[0];
            if (op.num_qubits() == 2)
                oss << " " << op.qubits[1];
            oss << " feat " << op.data_index;
            if (op.data_index2 >= 0)
                oss << "*" << op.data_index2;
            break;
        }
        oss << "\n";
    }
    oss << "measure";
    for (int q : circuit.measured())
        oss << " " << q;
    oss << "\n";
    return oss.str();
}

Circuit
from_text(const std::string &text)
{
    std::istringstream iss(text);
    std::string line;

    auto fail = [](const std::string &why) -> void {
        elv::fatal("malformed circuit text: " + why);
    };

    if (!std::getline(iss, line) || line != "elv-circuit 1")
        fail("missing 'elv-circuit 1' header");

    std::map<std::string, GateKind> kinds;
    for (GateKind kind :
         {GateKind::RX, GateKind::RY, GateKind::RZ, GateKind::U3,
          GateKind::H, GateKind::S, GateKind::Sdg, GateKind::X,
          GateKind::Y, GateKind::Z, GateKind::CX, GateKind::CZ,
          GateKind::SWAP, GateKind::CRY})
        kinds[gate_name(kind)] = kind;

    int num_qubits = 0;
    {
        if (!std::getline(iss, line))
            fail("missing 'qubits' line");
        std::istringstream ls(line);
        std::string keyword;
        ls >> keyword >> num_qubits;
        if (keyword != "qubits" || !ls || num_qubits < 1 ||
            num_qubits > kMaxTextQubits)
            fail("bad 'qubits' line (1 to " +
                 std::to_string(kMaxTextQubits) + "): " + line);
    }
    auto check_qubit = [&](int q) {
        if (q < 0 || q >= num_qubits)
            fail("qubit " + std::to_string(q) + " out of range: " + line);
    };
    // Every operand is read: anything left on the line is malformed.
    auto check_end = [&](std::istringstream &ls) {
        std::string extra;
        if (ls >> extra)
            fail("trailing '" + extra + "': " + line);
    };
    // A whole decimal feature index in [0, kMaxTextFeature], else -1.
    auto feature_index = [](const std::string &digits) {
        int value = -1;
        const char *end = digits.data() + digits.size();
        const auto [at, ec] = std::from_chars(digits.data(), end, value);
        return ec == std::errc() && at == end && value <= kMaxTextFeature
                   ? value
                   : -1;
    };

    Circuit circuit(num_qubits);
    bool measured_seen = false;
    while (std::getline(iss, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string keyword;
        ls >> keyword;

        if (keyword == "measure") {
            std::vector<int> measured;
            std::set<int> seen;
            for (std::string token; ls >> token;) {
                int q = -1;
                const char *end = token.data() + token.size();
                const auto [at, ec] = std::from_chars(token.data(), end, q);
                if (ec != std::errc() || at != end)
                    fail("bad measured qubit '" + token + "': " + line);
                check_qubit(q);
                if (!seen.insert(q).second)
                    fail("qubit " + std::to_string(q) +
                         " measured twice: " + line);
                measured.push_back(q);
            }
            circuit.set_measured(measured);
            measured_seen = true;
            continue;
        }
        if (keyword == "ampembed") {
            check_end(ls);
            circuit.add_amplitude_embedding();
            continue;
        }

        std::string name;
        ls >> name;
        const auto it = kinds.find(name);
        if (it == kinds.end())
            fail("unknown gate '" + name + "'");
        const GateKind kind = it->second;

        std::vector<int> qubits(
            static_cast<std::size_t>(gate_num_qubits(kind)));
        for (int &q : qubits) {
            if (!(ls >> q))
                fail("missing qubit operand: " + line);
            check_qubit(q);
        }
        if (qubits.size() == 2 && qubits[0] == qubits[1])
            fail("2-qubit gate on one qubit: " + line);

        if (keyword == "gate") {
            if (gate_is_parametric(kind))
                fail("parametric gate needs 'var' or 'embed': " + line);
            check_end(ls);
            circuit.add_gate(kind, qubits);
        } else if (keyword == "var") {
            if (!gate_is_parametric(kind))
                fail("'var' needs a parametric gate: " + line);
            check_end(ls);
            circuit.add_variational(kind, qubits);
        } else if (keyword == "embed") {
            if (gate_num_params(kind) != 1)
                fail("'embed' needs a one-parameter gate: " + line);
            std::string feat_kw, spec;
            ls >> feat_kw >> spec;
            if (feat_kw != "feat" || spec.empty())
                fail("embedding without 'feat': " + line);
            const auto star = spec.find('*');
            const int feature = feature_index(spec.substr(0, star));
            const int feature2 = star == std::string::npos
                                     ? -1
                                     : feature_index(spec.substr(star + 1));
            if (feature < 0 || (star != std::string::npos && feature2 < 0))
                fail("bad feature spec: " + spec);
            check_end(ls);
            circuit.add_embedding(kind, qubits, feature, feature2);
        } else {
            fail("unknown directive '" + keyword + "'");
        }
    }
    if (!measured_seen)
        fail("missing 'measure' line");
    return circuit;
}

std::string
to_text_line(const Circuit &circuit)
{
    const std::string text = to_text(circuit);
    std::string line;
    line.reserve(text.size() + 8);
    for (char c : text) {
        if (c == '\\')
            line += "\\\\";
        else if (c == '\n')
            line += "\\n";
        else
            line += c;
    }
    return line;
}

Circuit
from_text_line(const std::string &line)
{
    std::string text;
    text.reserve(line.size());
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] != '\\') {
            text += line[i];
            continue;
        }
        if (i + 1 >= line.size())
            elv::fatal("malformed circuit line: trailing backslash");
        ++i;
        if (line[i] == '\\')
            text += '\\';
        else if (line[i] == 'n')
            text += '\n';
        else
            elv::fatal(std::string("malformed circuit line: bad escape "
                                   "'\\") +
                       line[i] + "'");
    }
    return from_text(text);
}

std::ostream &
operator<<(std::ostream &os, const Circuit &circuit)
{
    return os << to_text(circuit);
}

} // namespace elv::circ
