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
    /** A fixed CX/CZ/SWAP nothing has fused into (yet). */
    bool lone_permutation = false;
};

bool
is_permutation(circ::GateKind kind)
{
    return kind == circ::GateKind::CX || kind == circ::GateKind::CZ ||
           kind == circ::GateKind::SWAP;
}

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
    for (const circ::Op &op : circuit.ops()) {
        if (op.kind == circ::GateKind::AmpEmbed ||
            op.role != circ::ParamRole::None) {
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
                    e.lone_permutation = false;
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
            e.lone_permutation = false;
            ++prog.ops_merged_;
            continue;
        }
        // New 2-qubit entry; absorb pending 1-qubit entries on its
        // operands (they precede it with nothing touching a/b in
        // between, so pre-multiplying their embeddings is exact).
        Entry e;
        e.lone_permutation = is_permutation(op.kind);
        for (int slot = 0; slot < 2; ++slot) {
            const int q = op.qubits[static_cast<std::size_t>(slot)];
            const int idx = open_at(q);
            if (idx >= 0 &&
                entry_at(idx).fused.kind == FusedOp::Kind::One) {
                u = matmul(u, embed_1q_in_2q(entry_at(idx).fused.m2,
                                             slot));
                entry_at(idx).skip = true;
                e.lone_permutation = false;
                ++prog.ops_merged_;
            }
        }
        e.fused.kind = FusedOp::Kind::Two;
        e.fused.op = op;
        e.fused.m4 = u;
        e.fused.q0 = a;
        e.fused.q1 = b;
        open_at(a) = open_at(b) = static_cast<int>(stream.size());
        stream.push_back(e);
    }

    prog.ops_.reserve(stream.size());
    for (const Entry &e : stream) {
        if (e.skip)
            continue;
        prog.ops_.push_back(e.fused);
        FusedOp &f = prog.ops_.back();
        if (e.lone_permutation)
            f.kind = FusedOp::Kind::Permutation;
        else if (f.kind != FusedOp::Kind::Barrier)
            f.op = {};
    }
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
          case FusedOp::Kind::Permutation:
            psi.apply_gate(f.op.kind, f.m4, f.q0, f.q1);
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

LaneBarriers
FusedProgram::resolve_embedding(
    const std::vector<std::vector<double>> &xs) const
{
    LaneBarriers out;
    out.lanes = xs.size();
    const std::size_t lanes = out.lanes;
    bool amp_embed = false;
    for (const FusedOp &f : ops_)
        amp_embed = amp_embed || (f.kind == FusedOp::Kind::Barrier &&
                                  f.op.kind == circ::GateKind::AmpEmbed);
    if (amp_embed) {
        for (const auto &x : xs)
            out.features = std::max(out.features, x.size());
        out.amp.assign(out.features * lanes, 0.0);
    }
    // Lane b's copy of slot s's coefficient k goes to
    // planes[(coefficients * s + k) * lanes + b].
    auto scatter = [lanes](std::vector<double> &planes, const auto &mats,
                           std::size_t coefficients, std::size_t b) {
        planes.resize(coefficients * mats.size() * lanes);
        for (std::size_t s = 0; s < mats.size(); ++s) {
            const auto *c = reinterpret_cast<const double *>(mats[s][0].data());
            for (std::size_t k = 0; k < coefficients; ++k)
                planes[(coefficients * s + k) * lanes + b] = c[k];
        }
    };
    for (std::size_t b = 0; b < lanes; ++b) {
        const ResolvedBarriers r =
            resolve(circ::ParamRole::Embedding, {}, xs[b]);
        scatter(out.one, r.one, 8, b);
        scatter(out.two, r.two, 32, b);
        if (amp_embed)
            for (std::size_t f = 0; f < xs[b].size(); ++f)
                out.amp[f * lanes + b] = xs[b][f];
    }
    return out;
}

void
FusedProgram::run(StateBatch &batch, const ResolvedBarriers &variational,
                  const LaneBarriers &embedding, std::size_t first) const
{
    ELV_REQUIRE(batch.num_qubits() == num_qubits(),
                "program/state qubit count mismatch");
    ELV_REQUIRE(first + batch.lanes() <= embedding.lanes,
                "batch lanes outside the resolved samples");
    ELV_TRACE_SCOPE("sv.fused_run", "sim");
    // One run per lane, as if each sample replayed on its own.
    ELV_METRIC_COUNT_N("sim.sv.fused_runs", batch.lanes());
    note_kernel_dispatch(batch.lanes());
    const std::size_t lanes = embedding.lanes;
    auto lane_planes = [&](const std::vector<double> &planes,
                           std::size_t coefficients, std::size_t slot) {
        ELV_REQUIRE((slot + 1) * coefficients * lanes <= planes.size(),
                    "embedding slot " << slot << " not resolved");
        return LanePlanes{planes.data() + slot * coefficients * lanes + first,
                          lanes};
    };
    batch.reset();
    for (const FusedOp &f : ops_) {
        switch (f.kind) {
          case FusedOp::Kind::One:
            batch.apply_1q(f.m2, f.q0);
            break;
          case FusedOp::Kind::Two:
            batch.apply_2q(f.m4, f.q0, f.q1);
            break;
          case FusedOp::Kind::Permutation:
            batch.apply_gate(f.op.kind, f.m4, f.q0, f.q1);
            break;
          case FusedOp::Kind::Barrier: {
            const circ::Op &op = f.op;
            const auto slot = static_cast<std::size_t>(f.slot);
            if (op.kind == circ::GateKind::AmpEmbed)
                batch.set_amplitude_embedding(
                    {embedding.amp.data() + first, lanes},
                    embedding.features);
            else if (op.role == circ::ParamRole::Embedding &&
                     op.num_qubits() == 1)
                batch.apply_gate(op.kind, lane_planes(embedding.one, 8, slot),
                                 op.qubits[0]);
            else if (op.role == circ::ParamRole::Embedding)
                batch.apply_gate(op.kind, lane_planes(embedding.two, 32, slot),
                                 op.qubits[0], op.qubits[1]);
            else if (op.num_qubits() == 1)
                batch.apply_gate(op.kind, variational.one.at(slot),
                                 op.qubits[0]);
            else
                batch.apply_gate(op.kind, variational.two.at(slot),
                                 op.qubits[0], op.qubits[1]);
            break;
          }
        }
    }
}

} // namespace elv::sim
