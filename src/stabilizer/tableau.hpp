/**
 * @file
 * Aaronson–Gottesman stabilizer tableau simulator (the CHP algorithm).
 *
 * Clifford circuits are simulable in polynomial time (paper Sec. 5:
 * "Clifford circuits are a class of efficiently simulable quantum
 * circuits"), which is what makes Clifford-replica fidelity a cheap
 * predictor. This tableau supports all fixed Clifford gates in the IR,
 * direct Pauli injection (for Monte-Carlo noise), and single-qubit
 * computational-basis measurement.
 *
 * Representation: 2n generator rows (n destabilizers followed by n
 * stabilizers); row i stores X/Z bit vectors (packed 64-bit words) and a
 * sign bit.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"

namespace elv::stab {

/** Stabilizer state of an n-qubit register, initialized to |0...0>. */
class Tableau
{
  public:
    explicit Tableau(int num_qubits);

    int num_qubits() const { return num_qubits_; }

    /** Reset to |0...0>. */
    void reset();

    /** @name Clifford gates @{ */
    void h(int q);
    void s(int q);
    void sdg(int q);
    void cx(int control, int target);
    void cz(int a, int b);
    void swap_gate(int a, int b);
    /** @} */

    /** @name Pauli gates / error injection @{ */
    void x(int q);
    void y(int q);
    void z(int q);
    /** Apply the Pauli with X component `px` and Z component `pz`. */
    void pauli(int q, bool px, bool pz);
    /** @} */

    /**
     * Apply one fixed Clifford op from the IR (throws on non-Clifford
     * kinds).
     */
    void apply_op(const circ::Op &op);

    /** Apply a whole Clifford circuit (measurements not included). */
    void apply(const circ::Circuit &circuit);

    /**
     * Measure qubit q in the computational basis, collapsing the state.
     * Returns 0 or 1; random outcomes consume entropy from `rng`.
     */
    int measure(int q, elv::Rng &rng);

    /**
     * True iff measuring q would give a deterministic outcome (no
     * stabilizer generator anticommutes with Z_q).
     */
    bool is_deterministic(int q) const;

    /** @name Row accessors (for tests) @{ */
    bool x_bit(int row, int q) const;
    bool z_bit(int row, int q) const;
    /** @} */

  private:
    int row_offset(int row) const;
    void rowsum(int h, int i);
    int g_exponent(int row_i, int row_h) const;

    int num_qubits_;
    int words_;
    /** xs_/zs_ hold 2n rows of `words_` packed words each. */
    std::vector<std::uint64_t> xs_;
    std::vector<std::uint64_t> zs_;
    /** Sign bits for the 2n rows. */
    std::vector<std::uint8_t> signs_;
    /** Scratch row used by deterministic measurement. */
    std::vector<std::uint64_t> scratch_x_;
    std::vector<std::uint64_t> scratch_z_;
};

/**
 * Hook invoked after every op of a noisy stabilizer shot; implementations
 * inject Pauli errors into the tableau.
 */
class PauliNoiseHook
{
  public:
    virtual ~PauliNoiseHook() = default;
    /** Called after `op` has been applied. */
    virtual void after_op(Tableau &tab, const circ::Op &op,
                          elv::Rng &rng) const = 0;
    /**
     * Probability that the readout of `qubit` flips (applied to outcome
     * bits after measurement). Default: no readout error.
     */
    virtual double
    readout_flip_probability(int /* qubit */) const
    {
        return 0.0;
    }
};

/**
 * Execute one shot of a Clifford circuit: apply all gates (optionally
 * with noise injection) and measure the circuit's measured qubits.
 * Returns the outcome index (bit i = readout of measured()[i]).
 */
std::size_t run_shot(const circ::Circuit &circuit, elv::Rng &rng,
                     const PauliNoiseHook *noise = nullptr);

/**
 * Empirical outcome distribution over the measured qubits from `shots`
 * independent executions.
 */
std::vector<double> sample_distribution(const circ::Circuit &circuit,
                                        int shots, elv::Rng &rng,
                                        const PauliNoiseHook *noise =
                                            nullptr);

} // namespace elv::stab
