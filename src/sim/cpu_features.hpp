/**
 * @file
 * Runtime CPU-feature detection and kernel-tier dispatch.
 *
 * Each vector kernel is one source compiled into three tiers — the
 * baseline, AVX2 and AVX-512 — through the target-attributed entry
 * points of vec_lanes.hpp, so one binary carries all of them. The
 * active tier is chosen once per process from CPUID
 * (`best_supported_tier`), and can be overridden:
 *
 *  - `ELV_FORCE_KERNEL=baseline|avx2|avx512` (environment, read once):
 *    CI uses this to exercise every tier on any runner. Forcing a tier
 *    the CPU lacks logs a warning and clamps to the best supported one,
 *    so the override is always safe to set.
 *  - set_forced_tier() / clear_forced_tier() (programmatic, same
 *    clamping): used by the benches and the tier-equivalence tests to
 *    switch tiers mid-process.
 *
 * Every tier computes bit-identical results (see vec_complex.hpp and
 * vec_batch.hpp), so switching tiers — across processes, machines, or
 * mid-run — never perturbs scores, rankings, or journal resume.
 */
#pragma once

#include <optional>
#include <string>

namespace elv::sim {

/** Vector-kernel tiers, in ascending capability order. */
enum class KernelTier {
    Baseline = 0, ///< base-ISA code (always available)
    AVX2 = 1,     ///< 256-bit lanes (x86 with AVX2)
    AVX512 = 2,   ///< 512-bit lanes (x86 with AVX-512F)
};

/** Printable tier name ("baseline" / "avx2" / "avx512"). */
const char *kernel_tier_name(KernelTier tier);

/** Inverse of kernel_tier_name; nullopt for unknown names. */
std::optional<KernelTier> kernel_tier_from_name(const std::string &name);

/** Best tier this CPU supports (CPUID, detected once). */
KernelTier best_supported_tier();

/**
 * The tier the kernels dispatch on: a programmatic force if set, else
 * the ELV_FORCE_KERNEL override if present, else best_supported_tier().
 * Unsupported requests are clamped with a warning.
 */
KernelTier active_tier();

/** Force a tier process-wide (clamped to best_supported_tier()). */
void set_forced_tier(KernelTier tier);

/** Drop the programmatic force (env override, if any, re-applies). */
void clear_forced_tier();

} // namespace elv::sim
