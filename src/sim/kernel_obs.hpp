/**
 * @file
 * Dispatch-tier observability for the vector kernels.
 *
 * `sim.kernel_dispatch.*` counts, per simulator run (state-vector,
 * fused, and noisy density-matrix runs), the tier the run dispatched on
 * — the --metrics answer to "did this host actually run the AVX2/AVX-512
 * kernels?". Counted per run rather than per kernel call to keep the
 * hot loops free of extra atomic-flag loads. It is not the width each
 * call ran at: on the AVX-512 tier a call whose lowest operand mask is
 * below 4 still runs at AVX2 width (vec_complex.hpp; DESIGN.md §12
 * gives the measured shares per kernel).
 */
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "sim/cpu_features.hpp"

namespace elv::sim {

/** Count `runs` simulator runs on the active tier (a batch counts one
 *  per lane). */
inline void
note_kernel_dispatch(std::uint64_t runs = 1)
{
    (void)runs;
    switch (active_tier()) {
      case KernelTier::Baseline:
        ELV_METRIC_COUNT_N("sim.kernel_dispatch.baseline", runs);
        break;
      case KernelTier::AVX2:
        ELV_METRIC_COUNT_N("sim.kernel_dispatch.avx2", runs);
        break;
      case KernelTier::AVX512:
        ELV_METRIC_COUNT_N("sim.kernel_dispatch.avx512", runs);
        break;
    }
}

} // namespace elv::sim
