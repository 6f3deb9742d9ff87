#include "sim/fusion.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/kernel_obs.hpp"

namespace elv::sim {

namespace {

/** Stream entry under construction; skipped entries were absorbed. */
struct Entry
{
    FusedOp fused;
    bool skip = false;
};

} // namespace

FusedProgram
FusedProgram::compile(const circ::Circuit &circuit)
{
    FusedProgram prog;
    prog.source_ = circuit;

    // open[q] indexes the stream entry still fusable on qubit q (-1 =
    // none). The invariant making every merge a legal commutation: no
    // op between stream[open[q]] and the current position touches q.
    std::vector<int> open(static_cast<std::size_t>(circuit.num_qubits()),
                          -1);
    std::vector<Entry> stream;
    stream.reserve(circuit.ops().size());
    auto open_at = [&open](int q) -> int & {
        return open[static_cast<std::size_t>(q)];
    };
    auto entry_at = [&stream](int idx) -> Entry & {
        return stream[static_cast<std::size_t>(idx)];
    };

    // Next ResolvedBarriers slot per [role is embedding][arity is 2].
    int next_slot[2][2] = {{0, 0}, {0, 0}};
    bool in_const_prefix = true;
    for (const circ::Op &op : circuit.ops()) {
        const bool barrier = op.kind == circ::GateKind::AmpEmbed ||
                             op.role != circ::ParamRole::None;
        if (barrier)
            in_const_prefix = false;
        else if (in_const_prefix)
            ++prog.const_prefix_source_ops_;
        if (barrier) {
            // Angles resolve at run time; keep the IR op and close the
            // touched qubits (all of them for amplitude embedding,
            // which rewrites the whole state).
            Entry e;
            e.fused.kind = FusedOp::Kind::Barrier;
            e.fused.op = op;
            if (op.kind == circ::GateKind::AmpEmbed) {
                std::fill(open.begin(), open.end(), -1);
            } else {
                for (int k = 0; k < op.num_qubits(); ++k)
                    open_at(op.qubits[static_cast<std::size_t>(k)]) = -1;
                e.fused.slot =
                    next_slot[op.role == circ::ParamRole::Embedding]
                             [op.num_qubits() == 2]++;
            }
            stream.push_back(e);
            continue;
        }

        const auto angles = circ::op_angles(op, {}, {});
        if (op.num_qubits() == 1) {
            const int q = op.qubits[0];
            const Mat2 u = gate_matrix_1q(op.kind, angles);
            const int idx = open_at(q);
            if (idx >= 0) {
                Entry &e = entry_at(idx);
                if (e.fused.kind == FusedOp::Kind::One) {
                    e.fused.m2 = matmul(u, e.fused.m2);
                } else {
                    const int slot = e.fused.q0 == q ? 0 : 1;
                    e.fused.m4 =
                        matmul(embed_1q_in_2q(u, slot), e.fused.m4);
                }
                ++prog.ops_merged_;
                continue;
            }
            Entry e;
            e.fused.kind = FusedOp::Kind::One;
            e.fused.m2 = u;
            e.fused.q0 = q;
            open_at(q) = static_cast<int>(stream.size());
            stream.push_back(e);
            continue;
        }

        const int a = op.qubits[0];
        const int b = op.qubits[1];
        Mat4 u = gate_matrix_2q(op.kind, angles);
        if (open_at(a) >= 0 && open_at(a) == open_at(b) &&
            entry_at(open_at(a)).fused.kind == FusedOp::Kind::Two) {
            // Same pair already open: compose in the |a b> basis,
            // reordering the earlier matrix if its operands were
            // listed the other way around.
            Entry &e = entry_at(open_at(a));
            Mat4 prev = e.fused.m4;
            if (e.fused.q0 == b)
                prev = swap_qubit_order(prev);
            e.fused.m4 = matmul(u, prev);
            e.fused.q0 = a;
            e.fused.q1 = b;
            ++prog.ops_merged_;
            continue;
        }
        // New 2-qubit entry; absorb pending 1-qubit entries on its
        // operands (they precede it with nothing touching a/b in
        // between, so pre-multiplying their embeddings is exact).
        for (int slot = 0; slot < 2; ++slot) {
            const int q = op.qubits[static_cast<std::size_t>(slot)];
            const int idx = open_at(q);
            if (idx >= 0 &&
                entry_at(idx).fused.kind == FusedOp::Kind::One) {
                u = matmul(u, embed_1q_in_2q(entry_at(idx).fused.m2,
                                             slot));
                entry_at(idx).skip = true;
                ++prog.ops_merged_;
            }
        }
        Entry e;
        e.fused.kind = FusedOp::Kind::Two;
        e.fused.m4 = u;
        e.fused.q0 = a;
        e.fused.q1 = b;
        open_at(a) = open_at(b) = static_cast<int>(stream.size());
        stream.push_back(e);
    }

    prog.ops_.reserve(stream.size());
    for (const Entry &e : stream)
        if (!e.skip)
            prog.ops_.push_back(e.fused);
    ELV_METRIC_COUNT_N("fusion.ops_merged", prog.ops_merged_);
    return prog;
}

template <typename ApplyBarrier>
void
FusedProgram::replay(StateVector &psi, ApplyBarrier &&barrier) const
{
    ELV_REQUIRE(psi.num_qubits() == num_qubits(),
                "program/state qubit count mismatch");
    ELV_TRACE_SCOPE("sv.fused_run", "sim");
    ELV_METRIC_COUNT("sim.sv.fused_runs");
    note_kernel_dispatch();
    psi.reset();
    for (const FusedOp &f : ops_) {
        switch (f.kind) {
          case FusedOp::Kind::One:
            psi.apply_1q(f.m2, f.q0);
            break;
          case FusedOp::Kind::Two:
            psi.apply_2q(f.m4, f.q0, f.q1);
            break;
          case FusedOp::Kind::Barrier:
            barrier(f);
            break;
        }
    }
}

void
FusedProgram::run(StateVector &psi, const std::vector<double> &params,
                  const std::vector<double> &x) const
{
    replay(psi, [&](const FusedOp &f) { psi.apply_op(f.op, params, x); });
}

ResolvedBarriers
FusedProgram::resolve(circ::ParamRole role,
                      const std::vector<double> &params,
                      const std::vector<double> &x) const
{
    ELV_REQUIRE(role != circ::ParamRole::None,
                "only parametric barriers resolve");
    ResolvedBarriers out;
    for (const FusedOp &f : ops_) {
        if (f.kind != FusedOp::Kind::Barrier || f.op.role != role ||
            f.op.kind == circ::GateKind::AmpEmbed)
            continue;
        const auto angles = circ::op_angles(f.op, params, x);
        if (f.op.num_qubits() == 1)
            out.one.push_back(gate_matrix_1q(f.op.kind, angles));
        else
            out.two.push_back(gate_matrix_2q(f.op.kind, angles));
    }
    return out;
}

void
FusedProgram::run(StateVector &psi, const ResolvedBarriers &variational,
                  const ResolvedBarriers &embedding,
                  const std::vector<double> &x) const
{
    replay(psi, [&](const FusedOp &f) {
        const circ::Op &op = f.op;
        if (op.kind == circ::GateKind::AmpEmbed) {
            psi.set_amplitude_embedding(x);
            return;
        }
        const ResolvedBarriers &mats =
            op.role == circ::ParamRole::Embedding ? embedding : variational;
        const auto slot = static_cast<std::size_t>(f.slot);
        if (op.num_qubits() == 1)
            psi.apply_gate(op.kind, mats.one.at(slot), op.qubits[0]);
        else
            psi.apply_gate(op.kind, mats.two.at(slot), op.qubits[0],
                           op.qubits[1]);
    });
}

} // namespace elv::sim
