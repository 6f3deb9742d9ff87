#include "noise/noise_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "circuit/serialize.hpp"
#include "common/logging.hpp"
#include "common/statistics.hpp"
#include "obs/metrics.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace elv::noise {

std::vector<double>
apply_readout_confusion(const std::vector<double> &probs,
                        const std::vector<double> &flip_probs)
{
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < probs.size())
        ++bits;
    ELV_REQUIRE((std::size_t{1} << bits) == probs.size(),
                "distribution size is not a power of two");
    ELV_REQUIRE(flip_probs.size() == bits,
                "one flip probability per outcome bit required");

    std::vector<double> current = probs;
    std::vector<double> next(probs.size());
    for (std::size_t b = 0; b < bits; ++b) {
        const double r = flip_probs[b];
        ELV_REQUIRE(r >= 0.0 && r <= 0.5, "bad readout error");
        const std::size_t mask = std::size_t{1} << b;
        for (std::size_t k = 0; k < current.size(); ++k)
            next[k] = (1.0 - r) * current[k] + r * current[k ^ mask];
        std::swap(current, next);
    }
    return current;
}

NoisyDensitySimulator::NoisyDensitySimulator(const dev::Device &device,
                                             double noise_scale)
    : device_(device), scale_(noise_scale)
{
    ELV_REQUIRE(noise_scale >= 0.0, "negative noise scale");
    // Reject malformed calibration up front: a silent size mismatch
    // here becomes an out-of-bounds read deep in the channel factory.
    device.validate();
}

namespace {

/** Refuse a compacted circuit too wide for an exact density matrix,
 *  before anything is allocated for it. */
void
check_density_width(const circ::Circuit &local)
{
    if (local.num_qubits() > sim::DensityMatrix::kMaxQubits)
        elv::fatal("the density backend simulates at most " +
                   std::to_string(sim::DensityMatrix::kMaxQubits) +
                   " touched qubits, and this circuit touches " +
                   std::to_string(local.num_qubits()) +
                   "; use CnrBackend::Stabilizer for wider Clifford "
                   "circuits");
}

} // namespace

std::shared_ptr<const NoisyProgram>
NoisyDensitySimulator::program_for(const circ::Circuit &circuit,
                                   const circ::Circuit &local,
                                   const std::vector<int> &kept) const
{
    // Every calibration value a compile of `circuit` reads, raw: the
    // kept qubits' T1/T2/1-qubit error and the error of every coupler
    // between two kept qubits (`kept` is sorted).
    std::string key = circ::to_text_line(circuit);
    auto put = [&key](double v) {
        char raw[sizeof v];
        std::memcpy(raw, &v, sizeof v);
        key.append(raw, sizeof raw);
    };
    for (int pq : kept) {
        const auto q = static_cast<std::size_t>(pq);
        put(device_.t1_us[q]);
        put(device_.t2_us[q]);
        put(device_.error_1q[q]);
    }
    const auto &edges = device_.topology.edges();
    for (std::size_t e = 0; e < edges.size(); ++e)
        if (std::binary_search(kept.begin(), kept.end(), edges[e].first) &&
            std::binary_search(kept.begin(), kept.end(), edges[e].second))
            put(device_.error_2q[e]);
    put(device_.duration_1q_ns);
    put(device_.duration_2q_ns);

    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        ELV_METRIC_COUNT("noise.program_cache.hits");
        return it->second;
    }
    ELV_METRIC_COUNT("noise.program_cache.misses");
    if (cache_.size() >= 128) {
        ELV_METRIC_COUNT_N("noise.program_cache.evictions", cache_.size());
        cache_.clear();
    }
    auto program = std::make_shared<const NoisyProgram>(
        NoisyProgram::compile(local, kept, device_, scale_, table_));
    cache_.emplace(std::move(key), program);
    return program;
}

std::vector<double>
NoisyDensitySimulator::run_distribution(const circ::Circuit &circuit,
                                        const std::vector<double> &params,
                                        const std::vector<double> &x) const
{
    ELV_REQUIRE(circuit.num_qubits() <= device_.num_qubits(),
                "circuit larger than device");
    std::vector<int> kept;
    const circ::Circuit local = circuit.compacted(kept);
    check_density_width(local);
    return distribution(*program_for(circuit, local, kept), local, kept,
                        params, x);
}

std::vector<double>
NoisyDensitySimulator::distribution(const NoisyProgram &program,
                                    const circ::Circuit &local,
                                    const std::vector<int> &kept,
                                    const std::vector<double> &params,
                                    const std::vector<double> &x) const
{
    sim::DensityMatrix rho(local.num_qubits());
    program.run(rho, params, x);
    auto probs = rho.probabilities(local.measured());
    if (scale_ > 0.0) {
        std::vector<double> flips;
        flips.reserve(local.measured().size());
        for (int lq : local.measured()) {
            const int pq = kept[static_cast<std::size_t>(lq)];
            flips.push_back(std::min(
                0.5, scale_ * device_.readout_error
                                  [static_cast<std::size_t>(pq)]));
        }
        probs = apply_readout_confusion(probs, flips);
    }
    return probs;
}

double
NoisyDensitySimulator::fidelity(const circ::Circuit &circuit,
                                const std::vector<double> &params,
                                const std::vector<double> &x) const
{
    ELV_REQUIRE(circuit.num_qubits() <= device_.num_qubits(),
                "circuit larger than device");
    std::vector<int> kept;
    const circ::Circuit local = circuit.compacted(kept);
    check_density_width(local);
    sim::StateVector psi(local.num_qubits());
    sim::FusedProgram::compile(local).run(psi, params, x);
    const auto ideal = psi.probabilities(local.measured());
    const NoisyProgram program =
        NoisyProgram::compile(local, kept, device_, scale_, table_);
    const auto noisy = distribution(program, local, kept, params, x);
    return 1.0 - elv::total_variation_distance(ideal, noisy);
}

DevicePauliNoise::DevicePauliNoise(const dev::Device &device,
                                   std::vector<int> local_to_physical,
                                   double noise_scale)
    : device_(device), map_(std::move(local_to_physical)),
      scale_(noise_scale)
{
    for (int pq : map_)
        ELV_REQUIRE(pq >= 0 && pq < device.num_qubits(),
                    "physical qubit out of range");
}

void
DevicePauliNoise::inject(stab::Tableau &tab, int local_qubit,
                         const PauliProbs &probs, elv::Rng &rng) const
{
    const double u = rng.uniform();
    if (u < probs.px)
        tab.x(local_qubit);
    else if (u < probs.px + probs.py)
        tab.y(local_qubit);
    else if (u < probs.px + probs.py + probs.pz)
        tab.z(local_qubit);
}

void
DevicePauliNoise::after_op(stab::Tableau &tab, const circ::Op &op,
                           elv::Rng &rng) const
{
    if (scale_ == 0.0)
        return;
    auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };
    if (op.num_qubits() == 1) {
        const int lq = op.qubits[0];
        const int pq = map_[static_cast<std::size_t>(lq)];
        const double err =
            clamp01(scale_ *
                    device_.error_1q[static_cast<std::size_t>(pq)]);
        PauliProbs probs = compose(
            depolarizing_pauli(err),
            thermal_relaxation_pauli(
                device_.t1_us[static_cast<std::size_t>(pq)] /
                    std::max(scale_, 1e-9),
                device_.t2_us[static_cast<std::size_t>(pq)] /
                    std::max(scale_, 1e-9),
                device_.duration_1q_ns));
        inject(tab, lq, probs, rng);
    } else {
        const int la = op.qubits[0], lb = op.qubits[1];
        const int pa = map_[static_cast<std::size_t>(la)];
        const int pb = map_[static_cast<std::size_t>(lb)];
        if (!device_.topology.has_edge(pa, pb))
            elv::fatal("2-qubit gate on uncoupled physical qubits; "
                       "route the circuit first");
        // Two-qubit depolarizing twirl: with probability err, a uniform
        // non-identity two-qubit Pauli.
        const double err = clamp01(scale_ * device_.edge_error(pa, pb));
        if (rng.uniform() < err) {
            const std::size_t which = 1 + rng.uniform_index(15);
            const int a_part = static_cast<int>(which / 4);
            const int b_part = static_cast<int>(which % 4);
            if (a_part)
                tab.pauli(la, a_part == 1 || a_part == 2,
                          a_part == 2 || a_part == 3);
            if (b_part)
                tab.pauli(lb, b_part == 1 || b_part == 2,
                          b_part == 2 || b_part == 3);
        }
        for (int side = 0; side < 2; ++side) {
            const int lq = side == 0 ? la : lb;
            const int pq = map_[static_cast<std::size_t>(lq)];
            inject(tab, lq,
                   thermal_relaxation_pauli(
                       device_.t1_us[static_cast<std::size_t>(pq)] /
                           std::max(scale_, 1e-9),
                       device_.t2_us[static_cast<std::size_t>(pq)] /
                           std::max(scale_, 1e-9),
                       device_.duration_2q_ns),
                   rng);
        }
    }
}

double
DevicePauliNoise::readout_flip_probability(int local_qubit) const
{
    const int pq = map_[static_cast<std::size_t>(local_qubit)];
    return std::min(0.5,
                    scale_ * device_.readout_error
                                 [static_cast<std::size_t>(pq)]);
}

} // namespace elv::noise
