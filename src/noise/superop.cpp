#include "noise/superop.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/logging.hpp"
#include "noise/channels.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel_obs.hpp"
#include "sim/vec_complex.hpp"

namespace elv::noise {

using sim::Amp;
using sim::Mat16;
using sim::Mat2;
using sim::Mat4;

// Index conventions: a 1-qubit superoperator row/column is 2*r + c
// over the (row-bit, column-bit) pair of the vectorized rho; a 2-qubit
// one is 8*r0 + 4*r1 + 2*c0 + c1 = 4*(gate-basis row) + (gate-basis
// column). Both match the operand order DensityMatrix passes to
// apply_2q/apply_4q.

Mat4
kraus_superop_1q(const std::vector<Mat2> &kraus)
{
    ELV_REQUIRE(!kraus.empty(), "empty Kraus set");
    Mat4 s = {};
    for (const Mat2 &k : kraus)
        for (std::size_t a = 0; a < 2; ++a)
            for (std::size_t b = 0; b < 2; ++b)
                for (std::size_t ap = 0; ap < 2; ++ap)
                    for (std::size_t bp = 0; bp < 2; ++bp)
                        s[2 * a + b][2 * ap + bp] +=
                            k[a][ap] * std::conj(k[b][bp]);
    return s;
}

Mat16
kraus_superop_2q(const std::vector<Mat4> &kraus)
{
    ELV_REQUIRE(!kraus.empty(), "empty Kraus set");
    Mat16 s = {};
    for (const Mat4 &k : kraus)
        for (std::size_t r = 0; r < 4; ++r)
            for (std::size_t c = 0; c < 4; ++c)
                for (std::size_t rp = 0; rp < 4; ++rp)
                    for (std::size_t cp = 0; cp < 4; ++cp)
                        s[4 * r + c][4 * rp + cp] +=
                            k[r][rp] * std::conj(k[c][cp]);
    return s;
}

Mat4
unitary_superop_1q(const Mat2 &u)
{
    return kraus_superop_1q({u});
}

Mat16
unitary_superop_2q(const Mat4 &u)
{
    return kraus_superop_2q({u});
}

Mat16
expand_superop_1q(const Mat4 &s, int slot)
{
    ELV_REQUIRE(slot == 0 || slot == 1, "bad embedding slot");
    // Slot 0 acts on the (r0, c0) bits (3 and 1 of the index), slot 1
    // on (r1, c1) (bits 2 and 0); the other pair passes through.
    const std::size_t rbit = slot == 0 ? 3 : 2;
    const std::size_t cbit = slot == 0 ? 1 : 0;
    const std::size_t keep =
        15u & ~((1u << rbit) | (1u << cbit));
    Mat16 out = {};
    // Row i is nonzero only in the 4 columns agreeing with it on `keep`.
    for (std::size_t i = 0; i < 16; ++i) {
        const std::size_t li = 2 * ((i >> rbit) & 1) + ((i >> cbit) & 1);
        for (std::size_t lj = 0; lj < 4; ++lj)
            out[i][(i & keep) | (lj >> 1) << rbit | (lj & 1) << cbit] =
                s[li][lj];
    }
    return out;
}

void
absorb_superop_1q(Mat16 &m, const Mat4 &s, int slot)
{
    ELV_REQUIRE(slot == 0 || slot == 1, "bad embedding slot");
    // m[i][j] is amplitude 16 * i + j of a 256-entry vector, so row bit
    // b is vector bit b + 4; the bits are expand_superop_1q's.
    const std::size_t rbit = slot == 0 ? 3 : 2;
    const std::size_t cbit = slot == 0 ? 1 : 0;
    sim::vec::apply_2q(m[0].data(), 256, std::size_t{1} << (rbit + 4),
                       std::size_t{1} << (cbit + 4), s[0].data());
}

Mat16
swap_superop_pair(const Mat16 &s)
{
    // Swap the qubit-0 and qubit-1 pairs: bits 3<->2 and 1<->0.
    auto p = [](std::size_t i) {
        return ((i & 8) >> 1) | ((i & 4) << 1) | ((i & 2) >> 1) |
               ((i & 1) << 1);
    };
    Mat16 out;
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t j = 0; j < 16; ++j)
            out[p(i)][p(j)] = s[i][j];
    return out;
}

namespace {

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

double
clamp01(double v)
{
    return std::clamp(v, 0.0, 1.0);
}

/** T1 or T2 with the error rates scaled by `scale` (time divides). */
double
scaled_time(double t_us, double scale)
{
    return t_us / std::max(scale, 1e-9);
}

Mat4
thermal_superop(double t1, double t2, double duration_ns)
{
    return kraus_superop_1q(thermal_relaxation_kraus(t1, t2, duration_ns));
}

} // namespace

std::size_t
SuperopTable::KeyHash::operator()(const Key &key) const
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint64_t word : key) {
        h ^= word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
}

template <typename Mat, typename Build>
Mat
SuperopTable::lookup(std::unordered_map<Key, Mat, KeyHash> &map,
                     const Key &key, Build &&build)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = map.find(key);
        if (it != map.end()) {
            ELV_METRIC_COUNT("noise.superop_table.hits");
            return it->second;
        }
    }
    // Build outside the lock: a racing thread may build the same entry
    // too, and both results are bit-identical.
    ELV_METRIC_COUNT("noise.superop_table.misses");
    const Mat built = build();
    std::lock_guard<std::mutex> lock(mutex_);
    if (map.size() >= kCapacity) {
        ELV_METRIC_COUNT_N("noise.superop_table.evictions", map.size());
        map.clear();
    }
    map.emplace(key, built);
    return built;
}

Mat4
SuperopTable::gate_1q(const circ::Op &op, bool fixed, int pq,
                      const dev::Device &device, double scale)
{
    const bool noisy = scale > 0.0;
    ELV_REQUIRE(fixed || noisy, "nothing to build for this gate");
    const auto angles = fixed ? circ::op_angles(op, {}, {})
                              : std::array<double, 3>{};
    double err = 0.0, t1 = 0.0, t2 = 0.0;
    if (noisy) {
        const auto q = static_cast<std::size_t>(pq);
        err = clamp01(scale * device.error_1q[q]);
        t1 = scaled_time(device.t1_us[q], scale);
        t2 = scaled_time(device.t2_us[q], scale);
    }
    const double duration = noisy ? device.duration_1q_ns : 0.0;
    const Key key = {static_cast<std::uint64_t>(op.kind) | 1u << 8 |
                         std::uint64_t{fixed} << 10 |
                         std::uint64_t{noisy} << 11,
                     bits(angles[0]), bits(angles[1]), bits(angles[2]),
                     bits(err), bits(t1), bits(t2), bits(duration), 0, 0};
    return lookup(one_, key, [&] {
        Mat4 s = {};
        bool have = false;
        if (fixed) {
            s = unitary_superop_1q(sim::gate_matrix_1q(op.kind, angles));
            have = true;
        }
        if (noisy) {
            const Mat4 noise =
                sim::matmul(thermal_superop(t1, t2, duration),
                            kraus_superop_1q(depolarizing_1q_kraus(err)));
            s = have ? sim::matmul(noise, s) : noise;
        }
        return s;
    });
}

Mat16
SuperopTable::gate_2q(const circ::Op &op, bool fixed, int pa, int pb,
                      const dev::Device &device, double scale)
{
    const bool noisy = scale > 0.0;
    ELV_REQUIRE(fixed || noisy, "nothing to build for this gate");
    const auto angles = fixed ? circ::op_angles(op, {}, {})
                              : std::array<double, 3>{};
    double err = 0.0, t1a = 0.0, t2a = 0.0, t1b = 0.0, t2b = 0.0;
    if (noisy) {
        if (!device.topology.has_edge(pa, pb))
            elv::fatal("2-qubit gate on uncoupled physical qubits " +
                       std::to_string(pa) + "," + std::to_string(pb) +
                       "; route the circuit first");
        const auto a = static_cast<std::size_t>(pa);
        const auto b = static_cast<std::size_t>(pb);
        err = clamp01(scale * device.edge_error(pa, pb));
        t1a = scaled_time(device.t1_us[a], scale);
        t2a = scaled_time(device.t2_us[a], scale);
        t1b = scaled_time(device.t1_us[b], scale);
        t2b = scaled_time(device.t2_us[b], scale);
    }
    const double duration = noisy ? device.duration_2q_ns : 0.0;
    const Key key = {static_cast<std::uint64_t>(op.kind) | 2u << 8 |
                         std::uint64_t{fixed} << 10 |
                         std::uint64_t{noisy} << 11,
                     bits(angles[0]), bits(angles[1]), bits(angles[2]),
                     bits(err), bits(t1a), bits(t2a), bits(t1b),
                     bits(t2b), bits(duration)};
    return lookup(two_, key, [&] {
        Mat16 s = {};
        bool have = false;
        if (fixed) {
            s = unitary_superop_2q(sim::gate_matrix_2q(op.kind, angles));
            have = true;
        }
        if (noisy) {
            Mat16 noise = kraus_superop_2q(depolarizing_2q_kraus(err));
            // CRY lowers to two CX on hardware: pay the channel twice.
            if (op.kind == circ::GateKind::CRY)
                noise = sim::matmul(noise, noise);
            noise = sim::matmul(
                expand_superop_1q(thermal_superop(t1a, t2a, duration), 0),
                noise);
            noise = sim::matmul(
                expand_superop_1q(thermal_superop(t1b, t2b, duration), 1),
                noise);
            s = have ? sim::matmul(noise, s) : noise;
        }
        return s;
    });
}

std::size_t
SuperopTable::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return one_.size() + two_.size();
}

NoisyProgram
NoisyProgram::compile(const circ::Circuit &local,
                      const std::vector<int> &kept,
                      const dev::Device &device, double scale)
{
    SuperopTable table;
    return compile(local, kept, device, scale, table);
}

NoisyProgram
NoisyProgram::compile(const circ::Circuit &local,
                      const std::vector<int> &kept,
                      const dev::Device &device, double scale,
                      SuperopTable &table)
{
    ELV_REQUIRE(kept.size() ==
                    static_cast<std::size_t>(local.num_qubits()),
                "kept/local qubit count mismatch");
    NoisyProgram prog;
    prog.num_qubits_ = local.num_qubits();

    struct Slot
    {
        Entry entry;
        bool skip = false;
    };
    std::vector<Slot> stream;
    stream.reserve(local.ops().size() * 2);
    // Same invariant as the state-vector fusion pass: open[q] indexes
    // the stream entry still fusable on qubit q, and nothing between
    // it and the current position touches q.
    std::vector<int> open(static_cast<std::size_t>(local.num_qubits()),
                          -1);
    auto open_at = [&open](int q) -> int & {
        return open[static_cast<std::size_t>(q)];
    };
    auto slot_at = [&stream](int idx) -> Slot & {
        return stream[static_cast<std::size_t>(idx)];
    };

    auto add_super1 = [&](const Mat4 &s, int q) {
        const int idx = open_at(q);
        if (idx >= 0) {
            Entry &e = slot_at(idx).entry;
            if (e.kind == Entry::Kind::Super1) {
                e.s4 = sim::matmul(s, e.s4);
            } else {
                absorb_superop_1q(e.s16, s, e.q0 == q ? 0 : 1);
            }
            ++prog.ops_merged_;
            return;
        }
        Slot sl;
        sl.entry.kind = Entry::Kind::Super1;
        sl.entry.s4 = s;
        sl.entry.q0 = q;
        open_at(q) = static_cast<int>(stream.size());
        stream.push_back(sl);
    };

    auto add_super2 = [&](Mat16 s, int a, int b) {
        if (open_at(a) >= 0 && open_at(a) == open_at(b) &&
            slot_at(open_at(a)).entry.kind == Entry::Kind::Super2) {
            Entry &e = slot_at(open_at(a)).entry;
            Mat16 prev = e.s16;
            if (e.q0 == b)
                prev = swap_superop_pair(prev);
            e.s16 = sim::matmul(s, prev);
            e.q0 = a;
            e.q1 = b;
            ++prog.ops_merged_;
            return;
        }
        const int qs[2] = {a, b};
        for (int slot = 0; slot < 2; ++slot) {
            const int idx = open_at(qs[slot]);
            if (idx >= 0 &&
                slot_at(idx).entry.kind == Entry::Kind::Super1) {
                s = sim::matmul(
                    s, expand_superop_1q(slot_at(idx).entry.s4, slot));
                slot_at(idx).skip = true;
                ++prog.ops_merged_;
            }
        }
        Slot sl;
        sl.entry.kind = Entry::Kind::Super2;
        sl.entry.s16 = s;
        sl.entry.q0 = a;
        sl.entry.q1 = b;
        open_at(a) = open_at(b) = static_cast<int>(stream.size());
        stream.push_back(sl);
    };

    auto physical = [&kept](int lq) {
        return kept[static_cast<std::size_t>(lq)];
    };
    const bool noisy = scale > 0.0;

    for (const circ::Op &op : local.ops()) {
        const bool fixed = op.kind != circ::GateKind::AmpEmbed &&
                           op.role == circ::ParamRole::None;
        if (!fixed) {
            // Angles resolve at run time: keep the IR op as a barrier.
            // Its trailing noise (angle-independent) follows below as
            // an ordinary fusable superoperator.
            if (op.kind == circ::GateKind::AmpEmbed)
                std::fill(open.begin(), open.end(), -1);
            else
                for (int k = 0; k < op.num_qubits(); ++k)
                    open_at(op.qubits[static_cast<std::size_t>(k)]) = -1;
            Slot sl;
            sl.entry.kind = Entry::Kind::Barrier;
            sl.entry.op = op;
            stream.push_back(sl);
            if (op.kind == circ::GateKind::AmpEmbed)
                continue;
        }

        if (!fixed && !noisy)
            continue; // a noiseless barrier contributes nothing more
        if (op.num_qubits() == 1) {
            const int lq = op.qubits[0];
            add_super1(table.gate_1q(op, fixed, physical(lq), device, scale),
                       lq);
        } else {
            const int la = op.qubits[0], lb = op.qubits[1];
            add_super2(table.gate_2q(op, fixed, physical(la), physical(lb),
                                     device, scale),
                       la, lb);
        }
    }

    prog.entries_.reserve(stream.size());
    for (const Slot &sl : stream)
        if (!sl.skip)
            prog.entries_.push_back(sl.entry);
    ELV_METRIC_COUNT_N("fusion.ops_merged", prog.ops_merged_);
    return prog;
}

void
NoisyProgram::run(sim::DensityMatrix &rho, const std::vector<double> &params,
                  const std::vector<double> &x) const
{
    ELV_REQUIRE(rho.num_qubits() == num_qubits_,
                "program/state qubit count mismatch");
    sim::note_kernel_dispatch();
    rho.reset();
    for (const Entry &e : entries_) {
        switch (e.kind) {
          case Entry::Kind::Super1:
            rho.apply_superop_1q(e.s4, e.q0);
            break;
          case Entry::Kind::Super2:
            rho.apply_superop_2q(e.s16, e.q0, e.q1);
            break;
          case Entry::Kind::Barrier:
            rho.apply_op(e.op, params, x);
            break;
        }
    }
}

} // namespace elv::noise
