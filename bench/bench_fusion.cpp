/**
 * @file
 * Fused execution engine benchmarks -> BENCH_fusion.json.
 *
 * Two wall-clock comparisons, both single-threaded:
 *
 *  - state-vector: StateVector::run (per-gate dispatch) vs
 *    FusedProgram::run (adjacent fixed gates collapsed into dense
 *    Mat2/Mat4 groups) on Clifford-heavy and parametric circuits at
 *    4-10 qubits, with a max-|amp-diff| equivalence check;
 *  - noisy density-matrix CNR path: what CNR does per Clifford replica
 *    of a device-native candidate — one NoisyProgram compile against a
 *    warm superoperator table, then one replay — timed as separate
 *    compile and replay columns, with a max-|prob-diff| check against
 *    programs built from a fresh table (must be exactly 0).
 *
 * The exit code reflects the *correctness* checks (fused must match
 * per-gate execution; table-compiled must match fresh builds) plus,
 * only when `--baseline` names a previous dump, the harness perf gate
 * over the recorded min-of-k section timings —
 * absolute speedups are still reported, not gated, so a loaded CI
 * machine cannot turn a perf report into a flaky failure. `--small`
 * restricts the sweep to the smallest sizes for smoke runs.
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/clifford_replica.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/candidate_gen.hpp"
#include "device/device.hpp"
#include "harness.hpp"
#include "noise/superop.hpp"
#include "sim/cpu_features.hpp"
#include "sim/density_matrix.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace elv;

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Layered Clifford circuit: H + CX brickwork + S (fuses maximally). */
circ::Circuit
clifford_brickwork(int qubits, int layers)
{
    circ::Circuit c(qubits);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < qubits; ++q)
            c.add_gate(circ::GateKind::H, {q});
        for (int q = l % 2; q + 1 < qubits; q += 2)
            c.add_gate(circ::GateKind::CX, {q, q + 1});
        for (int q = 0; q < qubits; ++q)
            c.add_gate(circ::GateKind::S, {q});
    }
    std::vector<int> meas;
    for (int q = 0; q < std::min(qubits, 10); ++q)
        meas.push_back(q);
    c.set_measured(meas);
    return c;
}

/** Fixed gates interleaved with variational RZ fusion barriers. */
circ::Circuit
parametric_mix(int qubits, int layers)
{
    circ::Circuit c(qubits);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < qubits; ++q)
            c.add_gate(circ::GateKind::H, {q});
        for (int q = 0; q < qubits; ++q)
            c.add_variational(circ::GateKind::RZ, {q});
        for (int q = l % 2; q + 1 < qubits; q += 2)
            c.add_gate(circ::GateKind::CX, {q, q + 1});
        for (int q = 0; q < qubits; ++q)
            c.add_gate(circ::GateKind::S, {q});
    }
    std::vector<int> meas;
    for (int q = 0; q < std::min(qubits, 10); ++q)
        meas.push_back(q);
    c.set_measured(meas);
    return c;
}

std::vector<double>
fixed_params(const circ::Circuit &c)
{
    std::vector<double> params(
        static_cast<std::size_t>(c.num_params()));
    for (std::size_t i = 0; i < params.size(); ++i)
        params[i] = 0.05 + 0.1 * static_cast<double>(i);
    return params;
}

/** Max |amp| difference between per-gate and fused execution. */
double
fused_max_diff(const circ::Circuit &c, int qubits,
               const std::vector<double> &params)
{
    sim::StateVector plain(qubits), fused(qubits);
    plain.run(c, params);
    sim::FusedProgram::compile(c).run(fused, params);
    double diff = 0.0;
    for (std::size_t i = 0; i < plain.dim(); ++i)
        diff = std::max(diff, std::abs(plain.amp(i) - fused.amp(i)));
    return diff;
}

struct SvTimings
{
    double plain_s = 0.0;
    double fused_scalar_s = 0.0;
    double fused_simd_s = 0.0;
    std::uint64_t ops_merged = 0;
};

/** Time one fused-program config under the currently active kernel
 *  tier. */
double
time_fused(const sim::FusedProgram &program, int qubits,
           const std::vector<double> &params, int reps)
{
    sim::StateVector psi(qubits);
    program.run(psi, params); // warm-up
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        program.run(psi, params);
    return seconds_since(start) / reps;
}

SvTimings
time_statevector(const circ::Circuit &c, int qubits, int reps)
{
    SvTimings t;
    const std::vector<double> params = fixed_params(c);
    sim::StateVector psi(qubits);

    psi.run(c, params); // warm-up
    auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        psi.run(c, params);
    t.plain_s = seconds_since(start) / reps;

    // Compile outside the timed loop: real workloads compile once and
    // replay the program many times (RepCap inits, training epochs).
    const sim::FusedProgram program = sim::FusedProgram::compile(c);
    t.ops_merged = program.ops_merged();
    // Scalar vs SIMD: same compiled program, different kernel tier, so
    // the columns isolate the kernel cost.
    sim::set_forced_tier(sim::KernelTier::Baseline);
    t.fused_scalar_s = time_fused(program, qubits, params, reps);
    sim::clear_forced_tier();
    t.fused_simd_s = time_fused(program, qubits, params, reps);
    return t;
}

/** Device-native candidate whose Clifford replicas drive the DM bench. */
circ::Circuit
cnr_candidate(const dev::Device &device, int qubits, elv::Rng &rng)
{
    core::CandidateConfig config;
    config.num_qubits = qubits;
    config.num_params = 2 * qubits;
    config.num_embeds = qubits / 2;
    config.num_meas = 2;
    config.num_features = 4;
    return core::generate_candidate(device, config, rng);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace elv;

    bool small = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--small")
            small = true;

    // This bench exists to emit BENCH_fusion.json; force --json on.
    std::vector<char *> args(argv, argv + argc);
    char force_json[] = "--json";
    args.push_back(force_json);
    bench::Reporter reporter("fusion", static_cast<int>(args.size()),
                             args.data());
    reporter.set_seed(11);

    bool ok = true;

    std::printf("kernel dispatch: %s\n",
                sim::kernel_tier_name(sim::active_tier()));

    // Part 1: state-vector, per-gate dispatch vs fused program, with
    // the fused engine timed at every kernel tier.
    Table sv("State-vector: per-gate vs fused (single-threaded)");
    sv.set_header({"circuit", "qubits", "ops merged", "per-gate (ms)",
                   "fused scalar (ms)", "fused simd (ms)",
                   "simd speedup", "max |diff|"});
    const std::vector<int> sv_qubits =
        small ? std::vector<int>{4, 6} : std::vector<int>{4, 6, 8, 10};
    for (const int qubits : sv_qubits) {
        struct Case
        {
            const char *name;
            const char *perf; // stable slug for the perf observatory
            circ::Circuit circuit;
        };
        const Case cases[] = {
            {"clifford brickwork", "sv.clifford",
             clifford_brickwork(qubits, 6)},
            {"parametric mix", "sv.parametric",
             parametric_mix(qubits, 6)},
        };
        for (const Case &kc : cases) {
            const int reps = small ? 50 : (qubits >= 10 ? 100 : 400);
            const SvTimings t =
                time_statevector(kc.circuit, qubits, reps);
            const std::string perf_key =
                std::string(kc.perf) + ".q" + std::to_string(qubits);
            reporter.record_perf(perf_key + ".plain", t.plain_s);
            reporter.record_perf(perf_key + ".fused_simd",
                                 t.fused_simd_s);
            const double diff = fused_max_diff(kc.circuit, qubits,
                                               fixed_params(kc.circuit));
            ok = ok && diff <= 1e-12;
            sv.add_row({kc.name, std::to_string(qubits),
                        std::to_string(t.ops_merged),
                        Table::fmt(1e3 * t.plain_s, 4),
                        Table::fmt(1e3 * t.fused_scalar_s, 4),
                        Table::fmt(1e3 * t.fused_simd_s, 4),
                        Table::fmt(t.fused_scalar_s /
                                       std::max(1e-12, t.fused_simd_s),
                                   2),
                        Table::fmt(diff, 14)});
        }
    }
    reporter.add(sv);

    // Part 2: the noisy density-matrix CNR path, as CNR runs it for
    // each replica: one compile against the simulator's superoperator
    // table, then one replay. Compile and replay are timed as separate
    // columns; replay at the scalar and at the dispatched SIMD tier.
    // Replicas are regenerated per size with a fixed seed.
    const dev::Device device = dev::make_device("ibmq_mumbai");
    Table dm("Noisy DM CNR path: compile against the superoperator "
             "table, then replay (scalar / SIMD)");
    dm.set_header({"qubits", "replicas", "compile (ms)",
                   "replay scalar (ms)", "replay simd (ms)",
                   "simd speedup", "max |prob diff|"});
    double simd_speedup_at_8 = 0.0;
    // 8 qubits stays in the smoke preset: it is the smallest size whose
    // sections clear the perf gate's 10 ms jitter cutoff.
    const std::vector<int> dm_qubits =
        small ? std::vector<int>{4, 6, 8} : std::vector<int>{4, 6, 8, 10};
    for (const int qubits : dm_qubits) {
        const int replicas = small ? 4 : (qubits >= 10 ? 4 : 8);
        elv::Rng rng(23 + static_cast<std::uint64_t>(qubits));
        const circ::Circuit candidate =
            cnr_candidate(device, qubits, rng);
        struct Replica
        {
            circ::Circuit local;
            std::vector<int> kept;
        };
        std::vector<Replica> reps;
        for (int m = 0; m < replicas; ++m) {
            Replica r;
            r.local = circ::make_clifford_replica(candidate, rng)
                          .compacted(r.kept);
            reps.push_back(std::move(r));
        }

        // The table is warm after the first replica, as in CNR, where
        // one simulator's table serves all of a candidate's replicas.
        noise::SuperopTable table;
        std::vector<noise::NoisyProgram> programs;
        for (const Replica &r : reps)
            programs.push_back(noise::NoisyProgram::compile(
                r.local, r.kept, device, 1.0, table));

        // Table-compiled programs must replay exactly like programs
        // built against a fresh table.
        double diff = 0.0;
        for (std::size_t m = 0; m < reps.size(); ++m) {
            const auto fresh = noise::NoisyProgram::compile(
                reps[m].local, reps[m].kept, device, 1.0);
            sim::DensityMatrix a(reps[m].local.num_qubits());
            sim::DensityMatrix b(reps[m].local.num_qubits());
            programs[m].run(a);
            fresh.run(b);
            const auto pa = a.probabilities(reps[m].local.measured());
            const auto pb = b.probabilities(reps[m].local.measured());
            for (std::size_t i = 0; i < pa.size(); ++i)
                diff = std::max(diff, std::abs(pa[i] - pb[i]));
        }
        ok = ok && diff == 0.0;

        // Min-of-k sampling in the smoke preset: the perf gate compares
        // these sections across invocations, and one averaged pass is
        // still hostage to a slow scheduling window. Three interleaved
        // passes per section; record_perf and the table keep the best.
        // The gate samples are process-CPU-second deltas (these
        // sections are single-threaded), so a descheduled process does
        // not read as a regression; the table shows wall clock. Each
        // timed section repeats its replica sweep `inner` times so the
        // span dwarfs the CPU-clock quantum (sandboxed kernels report
        // process CPU time at 10 ms jiffy granularity even when
        // clock_getres claims 1 ns); times are normalized back per
        // sweep before recording.
        const int passes = small ? 3 : 1;
        const int inner = small ? 4 : 1;
        auto replay_sweep = [&] {
            double trace_sum = 0.0;
            for (std::size_t m = 0; m < reps.size(); ++m) {
                sim::DensityMatrix rho(reps[m].local.num_qubits());
                programs[m].run(rho);
                trace_sum += rho.trace();
            }
            return trace_sum;
        };
        double compile_s = 0.0, scalar_s = 0.0, simd_s = 0.0;
        for (int pass = 0; pass < passes; ++pass) {
            auto start = std::chrono::steady_clock::now();
            double cpu_start = bench::process_cpu_seconds();
            for (int it = 0; it < inner; ++it)
                for (std::size_t m = 0; m < reps.size(); ++m)
                    programs[m] = noise::NoisyProgram::compile(
                        reps[m].local, reps[m].kept, device, 1.0, table);
            const double compile_cpu =
                (bench::process_cpu_seconds() - cpu_start) / inner;
            const double compile_t = seconds_since(start) / inner;

            // Identical programs, scalar kernels vs the dispatched SIMD
            // tier.
            double scalar_sum = 0.0, simd_sum = 0.0;
            sim::set_forced_tier(sim::KernelTier::Baseline);
            start = std::chrono::steady_clock::now();
            for (int it = 0; it < inner; ++it)
                scalar_sum = replay_sweep();
            const double scalar_t = seconds_since(start) / inner;
            sim::clear_forced_tier();

            start = std::chrono::steady_clock::now();
            cpu_start = bench::process_cpu_seconds();
            for (int it = 0; it < inner; ++it)
                simd_sum = replay_sweep();
            const double simd_cpu =
                (bench::process_cpu_seconds() - cpu_start) / inner;
            const double simd_t = seconds_since(start) / inner;
            ok = ok && scalar_sum == simd_sum;

            reporter.record_perf(
                "dm.compile.q" + std::to_string(qubits), compile_cpu);
            reporter.record_perf(
                "dm.replay_simd.q" + std::to_string(qubits), simd_cpu);
            if (pass == 0 || compile_t < compile_s)
                compile_s = compile_t;
            if (pass == 0 || scalar_t < scalar_s)
                scalar_s = scalar_t;
            if (pass == 0 || simd_t < simd_s)
                simd_s = simd_t;
        }

        const double simd_speedup = scalar_s / std::max(1e-12, simd_s);
        if (qubits == 8)
            simd_speedup_at_8 = simd_speedup;
        dm.add_row({std::to_string(qubits), std::to_string(replicas),
                    Table::fmt(1e3 * compile_s, 3),
                    Table::fmt(1e3 * scalar_s, 3),
                    Table::fmt(1e3 * simd_s, 3),
                    Table::fmt(simd_speedup, 2),
                    Table::fmt(diff, 12)});
    }
    reporter.add(dm);

    if (simd_speedup_at_8 > 0.0)
        std::printf("noisy CNR path SIMD speedup at 8 qubits: %.2fx "
                    "(target >= 1.5x, f64 SIMD vs scalar)\n",
                    simd_speedup_at_8);
    std::printf("equivalence checks: %s\n", ok ? "ok" : "FAILED");
    const int gate_rc = reporter.perf_gate_exit_code();
    return ok ? gate_rc : 1;
}
