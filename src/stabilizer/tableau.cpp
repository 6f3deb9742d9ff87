#include "stabilizer/tableau.hpp"

#include "common/logging.hpp"

namespace elv::stab {

namespace {

constexpr int kWordBits = 64;

inline int
word_of(int q)
{
    return q / kWordBits;
}

inline std::uint64_t
mask_of(int q)
{
    return std::uint64_t{1} << (q % kWordBits);
}

} // namespace

Tableau::Tableau(int num_qubits)
    : num_qubits_(num_qubits),
      words_((num_qubits + kWordBits - 1) / kWordBits)
{
    ELV_REQUIRE(num_qubits >= 1, "tableau needs at least one qubit");
    reset();
}

void
Tableau::reset()
{
    const std::size_t total =
        static_cast<std::size_t>(2 * num_qubits_) *
        static_cast<std::size_t>(words_);
    xs_.assign(total, 0);
    zs_.assign(total, 0);
    signs_.assign(static_cast<std::size_t>(2 * num_qubits_), 0);
    scratch_x_.assign(static_cast<std::size_t>(words_), 0);
    scratch_z_.assign(static_cast<std::size_t>(words_), 0);
    // Destabilizer i = X_i, stabilizer n+i = Z_i.
    for (int i = 0; i < num_qubits_; ++i) {
        xs_[static_cast<std::size_t>(row_offset(i) + word_of(i))] |=
            mask_of(i);
        zs_[static_cast<std::size_t>(row_offset(num_qubits_ + i) +
                                     word_of(i))] |= mask_of(i);
    }
}

int
Tableau::row_offset(int row) const
{
    return row * words_;
}

bool
Tableau::x_bit(int row, int q) const
{
    return xs_[static_cast<std::size_t>(row_offset(row) + word_of(q))] &
           mask_of(q);
}

bool
Tableau::z_bit(int row, int q) const
{
    return zs_[static_cast<std::size_t>(row_offset(row) + word_of(q))] &
           mask_of(q);
}

void
Tableau::h(int q)
{
    const int w = word_of(q);
    const std::uint64_t m = mask_of(q);
    for (int row = 0; row < 2 * num_qubits_; ++row) {
        const std::size_t idx =
            static_cast<std::size_t>(row_offset(row) + w);
        const bool xb = xs_[idx] & m;
        const bool zb = zs_[idx] & m;
        if (xb && zb)
            signs_[static_cast<std::size_t>(row)] =
                static_cast<std::uint8_t>(
                    (signs_[static_cast<std::size_t>(row)] + 2) & 3);
        if (xb != zb) {
            xs_[idx] ^= m;
            zs_[idx] ^= m;
        }
    }
}

void
Tableau::s(int q)
{
    const int w = word_of(q);
    const std::uint64_t m = mask_of(q);
    for (int row = 0; row < 2 * num_qubits_; ++row) {
        const std::size_t idx =
            static_cast<std::size_t>(row_offset(row) + w);
        const bool xb = xs_[idx] & m;
        const bool zb = zs_[idx] & m;
        if (xb && zb)
            signs_[static_cast<std::size_t>(row)] =
                static_cast<std::uint8_t>(
                    (signs_[static_cast<std::size_t>(row)] + 2) & 3);
        if (xb)
            zs_[idx] ^= m;
    }
}

void
Tableau::sdg(int q)
{
    // S^dagger = S^3.
    s(q);
    s(q);
    s(q);
}

void
Tableau::cx(int control, int target)
{
    ELV_REQUIRE(control != target, "CX on equal qubits");
    const int wc = word_of(control), wt = word_of(target);
    const std::uint64_t mc = mask_of(control), mt = mask_of(target);
    for (int row = 0; row < 2 * num_qubits_; ++row) {
        const std::size_t ic =
            static_cast<std::size_t>(row_offset(row) + wc);
        const std::size_t it =
            static_cast<std::size_t>(row_offset(row) + wt);
        const bool xc = xs_[ic] & mc;
        const bool zc = zs_[ic] & mc;
        const bool xt = xs_[it] & mt;
        const bool zt = zs_[it] & mt;
        if (xc && zt && (xt == zc))
            signs_[static_cast<std::size_t>(row)] =
                static_cast<std::uint8_t>(
                    (signs_[static_cast<std::size_t>(row)] + 2) & 3);
        if (xc)
            xs_[it] ^= mt;
        if (zt)
            zs_[ic] ^= mc;
    }
}

void
Tableau::cz(int a, int b)
{
    h(b);
    cx(a, b);
    h(b);
}

void
Tableau::swap_gate(int a, int b)
{
    cx(a, b);
    cx(b, a);
    cx(a, b);
}

void
Tableau::pauli(int q, bool px, bool pz)
{
    if (!px && !pz)
        return;
    const int w = word_of(q);
    const std::uint64_t m = mask_of(q);
    for (int row = 0; row < 2 * num_qubits_; ++row) {
        const bool xb =
            xs_[static_cast<std::size_t>(row_offset(row) + w)] & m;
        const bool zb =
            zs_[static_cast<std::size_t>(row_offset(row) + w)] & m;
        // The row sign flips iff the row's Pauli at q anticommutes with
        // the injected Pauli.
        bool anticommutes;
        if (px && pz)
            anticommutes = xb != zb; // Y vs {X, Z}
        else if (px)
            anticommutes = zb;       // X vs {Z, Y}
        else
            anticommutes = xb;       // Z vs {X, Y}
        if (anticommutes)
            signs_[static_cast<std::size_t>(row)] =
                static_cast<std::uint8_t>(
                    (signs_[static_cast<std::size_t>(row)] + 2) & 3);
    }
}

void
Tableau::x(int q)
{
    pauli(q, true, false);
}

void
Tableau::y(int q)
{
    pauli(q, true, true);
}

void
Tableau::z(int q)
{
    pauli(q, false, true);
}

void
Tableau::apply_op(const circ::Op &op)
{
    using circ::GateKind;
    switch (op.kind) {
      case GateKind::H: h(op.qubits[0]); break;
      case GateKind::S: s(op.qubits[0]); break;
      case GateKind::Sdg: sdg(op.qubits[0]); break;
      case GateKind::X: x(op.qubits[0]); break;
      case GateKind::Y: y(op.qubits[0]); break;
      case GateKind::Z: z(op.qubits[0]); break;
      case GateKind::CX: cx(op.qubits[0], op.qubits[1]); break;
      case GateKind::CZ: cz(op.qubits[0], op.qubits[1]); break;
      case GateKind::SWAP: swap_gate(op.qubits[0], op.qubits[1]); break;
      default:
        ELV_REQUIRE(false,
                    "non-Clifford op in stabilizer simulation: " +
                        circ::gate_name(op.kind));
    }
}

void
Tableau::apply(const circ::Circuit &circuit)
{
    ELV_REQUIRE(circuit.num_qubits() <= num_qubits_,
                "circuit larger than tableau");
    for (const circ::Op &op : circuit.ops())
        apply_op(op);
}

int
Tableau::g_exponent(int row_i, int row_h) const
{
    // Sum over qubits of the exponent to which i is raised when the
    // Pauli of row_i left-multiplies the Pauli of row_h.
    int acc = 0;
    for (int q = 0; q < num_qubits_; ++q) {
        const bool x1 = x_bit(row_i, q), z1 = z_bit(row_i, q);
        const bool x2 = x_bit(row_h, q), z2 = z_bit(row_h, q);
        if (!x1 && !z1)
            continue;
        if (x1 && z1)
            acc += (z2 ? 1 : 0) - (x2 ? 1 : 0);
        else if (x1)
            acc += z2 ? (x2 ? 1 : -1) : 0;
        else
            acc += x2 ? (z2 ? -1 : 1) : 0;
    }
    return acc;
}

void
Tableau::rowsum(int h, int i)
{
    // Signs are exponents of i (mod 4): destabilizer rows may carry
    // +-i phases transiently; only stabilizer rows must stay real.
    const int phase = signs_[static_cast<std::size_t>(h)] +
                      signs_[static_cast<std::size_t>(i)] +
                      g_exponent(i, h);
    signs_[static_cast<std::size_t>(h)] =
        static_cast<std::uint8_t>(((phase % 4) + 4) % 4);
    for (int w = 0; w < words_; ++w) {
        xs_[static_cast<std::size_t>(row_offset(h) + w)] ^=
            xs_[static_cast<std::size_t>(row_offset(i) + w)];
        zs_[static_cast<std::size_t>(row_offset(h) + w)] ^=
            zs_[static_cast<std::size_t>(row_offset(i) + w)];
    }
}

bool
Tableau::is_deterministic(int q) const
{
    for (int p = num_qubits_; p < 2 * num_qubits_; ++p)
        if (x_bit(p, q))
            return false;
    return true;
}

int
Tableau::measure(int q, elv::Rng &rng)
{
    ELV_REQUIRE(q >= 0 && q < num_qubits_, "measured qubit out of range");

    int p = -1;
    for (int row = num_qubits_; row < 2 * num_qubits_; ++row) {
        if (x_bit(row, q)) {
            p = row;
            break;
        }
    }

    if (p >= 0) {
        // Random outcome: Z_q anticommutes with stabilizer p.
        for (int row = 0; row < 2 * num_qubits_; ++row)
            if (row != p && x_bit(row, q))
                rowsum(row, p);
        // Destabilizer p - n becomes the old stabilizer row p.
        const int d = p - num_qubits_;
        for (int w = 0; w < words_; ++w) {
            xs_[static_cast<std::size_t>(row_offset(d) + w)] =
                xs_[static_cast<std::size_t>(row_offset(p) + w)];
            zs_[static_cast<std::size_t>(row_offset(d) + w)] =
                zs_[static_cast<std::size_t>(row_offset(p) + w)];
        }
        signs_[static_cast<std::size_t>(d)] =
            signs_[static_cast<std::size_t>(p)];
        // Row p becomes +- Z_q with a random sign (the outcome).
        for (int w = 0; w < words_; ++w) {
            xs_[static_cast<std::size_t>(row_offset(p) + w)] = 0;
            zs_[static_cast<std::size_t>(row_offset(p) + w)] = 0;
        }
        zs_[static_cast<std::size_t>(row_offset(p) + word_of(q))] |=
            mask_of(q);
        const int outcome = rng.bernoulli(0.5) ? 1 : 0;
        signs_[static_cast<std::size_t>(p)] =
            static_cast<std::uint8_t>(2 * outcome);
        return outcome;
    }

    // Deterministic outcome: accumulate into the scratch row.
    // Use an extra virtual row index 2n backed by scratch storage; we
    // emulate it by temporarily appending.
    std::fill(scratch_x_.begin(), scratch_x_.end(), 0);
    std::fill(scratch_z_.begin(), scratch_z_.end(), 0);
    int scratch_sign = 0;
    for (int i = 0; i < num_qubits_; ++i) {
        if (!x_bit(i, q))
            continue;
        // rowsum(scratch, i + n) with scratch as row h.
        const int stab = i + num_qubits_;
        int acc = 0;
        for (int qq = 0; qq < num_qubits_; ++qq) {
            const bool x1 = x_bit(stab, qq), z1 = z_bit(stab, qq);
            const bool x2 =
                scratch_x_[static_cast<std::size_t>(word_of(qq))] &
                mask_of(qq);
            const bool z2 =
                scratch_z_[static_cast<std::size_t>(word_of(qq))] &
                mask_of(qq);
            if (!x1 && !z1)
                continue;
            if (x1 && z1)
                acc += (z2 ? 1 : 0) - (x2 ? 1 : 0);
            else if (x1)
                acc += z2 ? (x2 ? 1 : -1) : 0;
            else
                acc += x2 ? (z2 ? -1 : 1) : 0;
        }
        const int phase = scratch_sign +
                          signs_[static_cast<std::size_t>(stab)] + acc;
        scratch_sign = ((phase % 4) + 4) % 4;
        for (int w = 0; w < words_; ++w) {
            scratch_x_[static_cast<std::size_t>(w)] ^=
                xs_[static_cast<std::size_t>(row_offset(stab) + w)];
            scratch_z_[static_cast<std::size_t>(w)] ^=
                zs_[static_cast<std::size_t>(row_offset(stab) + w)];
        }
    }
    ELV_REQUIRE(scratch_sign == 0 || scratch_sign == 2,
                "deterministic measurement produced imaginary phase");
    return scratch_sign / 2;
}

std::size_t
run_shot(const circ::Circuit &circuit, elv::Rng &rng,
         const PauliNoiseHook *noise)
{
    Tableau tab(circuit.num_qubits());
    for (const circ::Op &op : circuit.ops()) {
        tab.apply_op(op);
        if (noise)
            noise->after_op(tab, op, rng);
    }
    std::size_t outcome = 0;
    const auto &measured = circuit.measured();
    for (std::size_t b = 0; b < measured.size(); ++b) {
        int bit = tab.measure(measured[b], rng);
        if (noise &&
            rng.bernoulli(noise->readout_flip_probability(measured[b])))
            bit ^= 1;
        if (bit)
            outcome |= std::size_t{1} << b;
    }
    return outcome;
}

std::vector<double>
sample_distribution(const circ::Circuit &circuit, int shots, elv::Rng &rng,
                    const PauliNoiseHook *noise)
{
    ELV_REQUIRE(shots > 0, "need at least one shot");
    ELV_REQUIRE(circuit.measured().size() <= 20,
                "too many measured qubits");
    std::vector<double> dist(std::size_t{1} << circuit.measured().size(),
                             0.0);
    for (int s = 0; s < shots; ++s)
        dist[run_shot(circuit, rng, noise)] += 1.0;
    for (double &d : dist)
        d /= shots;
    return dist;
}

} // namespace elv::stab
