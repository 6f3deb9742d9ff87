/**
 * @file
 * Vectorized complex kernels for the state-vector hot loops.
 *
 * Every kernel ships in up to three tiers — scalar baseline, AVX2
 * (256-bit), AVX-512F (512-bit) — selected at run time through
 * cpu_features.hpp. The baseline tier is the plain scalar loop; the
 * vector tiers parallelize *across amplitude indices* (each SIMD lane
 * is a distinct amplitude) and replicate the per-amplitude arithmetic
 * operation-for-operation:
 *
 *  - complex multiply w*a is computed as the naive formula
 *    (re = a.re*w.re - a.im*w.im, im = a.im*w.re + a.re*w.im) with
 *    separate multiplies and adds — no FMA contraction — which is the
 *    code GCC emits for std::complex on finite values;
 *  - matvec accumulators start from +0 and sum in column order,
 *    exactly like the scalar `acc += u[r][c] * in[c]` loop. The 16x16
 *    kernel (apply_4q) and the 16x16 product (matmul16) skip every
 *    coefficient that is exactly zero (both parts +-0), on every tier,
 *    and that changes no bit of a finite result: the skipped product
 *    w*x is +-0 in each part, and adding +-0 leaves an accumulator as
 *    it was unless the accumulator is -0 — which it never is, because
 *    it starts at +0 and an IEEE sum is -0 only when both addends
 *    are -0. The 4x4 kernels stay dense (fused unitaries are dense).
 *
 * Consequence: all tiers produce BIT-IDENTICAL amplitudes on finite
 * states (the tier-equivalence tests assert this with memcmp), so
 * kernel dispatch never perturbs scores, rankings, thread-count
 * determinism (PR 2), or journal resume.
 *
 * Lane layout and the contiguity rule: amplitudes are interleaved
 * (re, im) pairs. A gathered kernel walks group indices g whose low
 * bits pass through insert_zero_bit unchanged, so W consecutive groups
 * give W consecutive amplitudes whenever W <= lo (the smallest qubit
 * mask). Kernels vectorize under that rule; when the lowest mask is 1
 * (a qubit-0 operand — common for density-matrix superoperators) the
 * AVX2 kernels fall back to a 128-bit-shuffle variant that
 * reassembles lanes with perm2f128, and everything else falls back to
 * the scalar loop.
 */
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <cstdint>

#include "sim/cpu_features.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define ELV_VEC_X86 1
#include <immintrin.h>
#else
#define ELV_VEC_X86 0
#endif

namespace elv::sim::vec {

/** Insert a zero bit at the position of `mask`: bits >= mask shift up. */
inline std::size_t
insert_zero_bit(std::size_t v, std::size_t mask)
{
    return ((v & ~(mask - 1)) << 1) | (v & (mask - 1));
}

// ---------------------------------------------------------------------
// Scalar baseline: these loops define the reference arithmetic every
// vector tier must reproduce bit-for-bit.

inline void
scalar_1q(std::complex<double> *amps, std::size_t dim, std::size_t stride,
          const std::complex<double> *u, std::size_t base_begin,
          std::size_t base_end)
{
    (void)dim;
    for (std::size_t base = base_begin; base < base_end;
         base += 2 * stride) {
        for (std::size_t off = 0; off < stride; ++off) {
            const std::size_t i0 = base + off;
            const std::size_t i1 = i0 + stride;
            const std::complex<double> a0 = amps[i0];
            const std::complex<double> a1 = amps[i1];
            amps[i0] = u[0] * a0 + u[1] * a1;
            amps[i1] = u[2] * a0 + u[3] * a1;
        }
    }
}

inline void
scalar_diag_1q(std::complex<double> *amps, std::size_t stride,
               std::complex<double> d0, std::complex<double> d1,
               std::size_t base_begin, std::size_t base_end)
{
    for (std::size_t base = base_begin; base < base_end;
         base += 2 * stride) {
        for (std::size_t off = 0; off < stride; ++off) {
            amps[base + off] *= d0;
            amps[base + off + stride] *= d1;
        }
    }
}

inline void
scalar_2q(std::complex<double> *amps, std::size_t m0, std::size_t m1,
          std::size_t lo, std::size_t hi, const std::complex<double> *u,
          std::size_t g_begin, std::size_t g_end)
{
    for (std::size_t g = g_begin; g < g_end; ++g) {
        const std::size_t i = insert_zero_bit(insert_zero_bit(g, lo), hi);
        // Local basis |q0 q1>: index = 2 * bit(q0) + bit(q1).
        const std::size_t idx[4] = {i, i | m1, i | m0, i | m0 | m1};
        std::complex<double> in[4];
        for (std::size_t k = 0; k < 4; ++k)
            in[k] = amps[idx[k]];
        for (std::size_t r = 0; r < 4; ++r) {
            std::complex<double> acc(0);
            for (std::size_t c = 0; c < 4; ++c)
                acc += u[4 * r + c] * in[c];
            amps[idx[r]] = acc;
        }
    }
}

/**
 * The nonzero coefficients of a row-major 16x16 matrix, row by row in
 * column order: row r's terms are [start[r], start[r + 1]). A dense
 * matrix has 256 terms, so the row starts are 16-bit.
 */
struct Nonzeros16
{
    std::uint16_t start[17];
    std::uint8_t col[256];
};

inline void
list_nonzeros16(const std::complex<double> *u, Nonzeros16 &nz)
{
    std::uint16_t n = 0;
    for (std::size_t r = 0; r < 16; ++r) {
        nz.start[r] = n;
        for (std::size_t c = 0; c < 16; ++c)
            if (u[16 * r + c] != std::complex<double>(0))
                nz.col[n++] = static_cast<std::uint8_t>(c);
    }
    nz.start[16] = n;
}

inline void
scalar_4q(std::complex<double> *amps, const std::size_t *sorted,
          const std::size_t *offset, const std::complex<double> *u,
          const Nonzeros16 &nz, std::size_t g_begin, std::size_t g_end)
{
    for (std::size_t g = g_begin; g < g_end; ++g) {
        std::size_t i = g;
        for (int a = 0; a < 4; ++a)
            i = insert_zero_bit(i, sorted[a]);
        std::complex<double> in[16];
        for (std::size_t k = 0; k < 16; ++k)
            in[k] = amps[i | offset[k]];
        for (std::size_t r = 0; r < 16; ++r) {
            std::complex<double> acc(0);
            for (std::size_t t = nz.start[r]; t < nz.start[r + 1]; ++t)
                acc += u[16 * r + nz.col[t]] * in[nz.col[t]];
            amps[i | offset[r]] = acc;
        }
    }
}

/** out += a * b over row-major 16x16 matrices, skipping zero a[i][k]
 *  (superoperators are sparse); each out[i][j] sums in k order. The
 *  skip is exact for finite b when `out` holds no -0, as sim::matmul's
 *  zero-initialized product does not (see the file comment). */
inline void
scalar_matmul16(const std::complex<double> *a, const std::complex<double> *b,
                std::complex<double> *out)
{
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t k = 0; k < 16; ++k) {
            const std::complex<double> aik = a[16 * i + k];
            if (aik == std::complex<double>(0))
                continue;
            for (std::size_t j = 0; j < 16; ++j)
                out[16 * i + j] += aik * b[16 * k + j];
        }
}

#if ELV_VEC_X86

// FP contraction would silently fuse the mul/add intrinsic pairs below
// into FMAs (the avx512f target implies FMA availability, and GCC
// contracts across intrinsics), changing the rounding of every complex
// multiply and breaking the scalar/SIMD bit-identity contract. Pin it
// off for the whole kernel section.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
// The optimize pragma defeats GCC's usual suppression of the
// deliberately-uninitialized temporary inside _mm512_undefined_pd()
// (inlined by _mm512_permute_pd); silence the false positive here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// ---------------------------------------------------------------------
// AVX2 (2 complex<double> lanes per ymm).

/** Lanewise w*a in the scalar operation order (no FMA). */
__attribute__((target("avx2"))) inline __m256d
cmul_pd(__m256d a, __m256d wr, __m256d wi)
{
    const __m256d t1 = _mm256_mul_pd(a, wr);
    const __m256d sw = _mm256_permute_pd(a, 0x5);
    const __m256d t2 = _mm256_mul_pd(sw, wi);
    return _mm256_addsub_pd(t1, t2);
}

/** out[r] = sum_c u[r*n+c] * in[c], accumulated from zero in order:
 *  the dense 4x4 kernel. n stays a parameter: with a literal 4, GCC
 *  compiles avx2_2q_pd into longer code (1,415 instructions, not
 *  1,182). */
__attribute__((target("avx2"))) inline void
matvec_pd(const std::complex<double> *u, std::size_t n, const __m256d *in,
          __m256d *out)
{
    for (std::size_t r = 0; r < n; ++r) {
        __m256d acc = _mm256_setzero_pd();
        for (std::size_t c = 0; c < n; ++c) {
            const std::complex<double> w = u[r * n + c];
            acc = _mm256_add_pd(
                acc, cmul_pd(in[c], _mm256_set1_pd(w.real()),
                             _mm256_set1_pd(w.imag())));
        }
        out[r] = acc;
    }
}

/** out[r] = sum over row r's nonzeros of u[16r+c] * in[c], accumulated
 *  from zero in column order (scalar_4q's sum). */
__attribute__((target("avx2"))) inline void
matvec16_pd(const std::complex<double> *u, const Nonzeros16 &nz,
            const __m256d *in, __m256d *out)
{
    for (std::size_t r = 0; r < 16; ++r) {
        __m256d acc = _mm256_setzero_pd();
        for (std::size_t t = nz.start[r]; t < nz.start[r + 1]; ++t) {
            const std::size_t c = nz.col[t];
            const std::complex<double> w = u[16 * r + c];
            acc = _mm256_add_pd(
                acc, cmul_pd(in[c], _mm256_set1_pd(w.real()),
                             _mm256_set1_pd(w.imag())));
        }
        out[r] = acc;
    }
}

/** scalar_matmul16 with each row of `out` held in 8 ymm accumulators;
 *  lanes run across j, so every out[i][j] sums in the same k order. */
__attribute__((target("avx2"))) inline void
avx2_matmul16_pd(const std::complex<double> *a, const std::complex<double> *b,
                 std::complex<double> *out)
{
    const double *rb = reinterpret_cast<const double *>(b);
    double *ro = reinterpret_cast<double *>(out);
    for (std::size_t i = 0; i < 16; ++i) {
        __m256d acc[8];
        for (std::size_t jj = 0; jj < 8; ++jj)
            acc[jj] = _mm256_loadu_pd(ro + 32 * i + 4 * jj);
        for (std::size_t k = 0; k < 16; ++k) {
            const std::complex<double> aik = a[16 * i + k];
            if (aik == std::complex<double>(0))
                continue;
            const __m256d wr = _mm256_set1_pd(aik.real());
            const __m256d wi = _mm256_set1_pd(aik.imag());
            for (std::size_t jj = 0; jj < 8; ++jj)
                acc[jj] = _mm256_add_pd(
                    acc[jj],
                    cmul_pd(_mm256_loadu_pd(rb + 32 * k + 4 * jj), wr, wi));
        }
        for (std::size_t jj = 0; jj < 8; ++jj)
            _mm256_storeu_pd(ro + 32 * i + 4 * jj, acc[jj]);
    }
}

__attribute__((target("avx2"))) inline void
avx2_1q_pd(std::complex<double> *amps, std::size_t dim, std::size_t stride,
           const std::complex<double> *u)
{
    double *raw = reinterpret_cast<double *>(amps);
    const __m256d u00r = _mm256_set1_pd(u[0].real());
    const __m256d u00i = _mm256_set1_pd(u[0].imag());
    const __m256d u01r = _mm256_set1_pd(u[1].real());
    const __m256d u01i = _mm256_set1_pd(u[1].imag());
    const __m256d u10r = _mm256_set1_pd(u[2].real());
    const __m256d u10i = _mm256_set1_pd(u[2].imag());
    const __m256d u11r = _mm256_set1_pd(u[3].real());
    const __m256d u11i = _mm256_set1_pd(u[3].imag());
    if (stride >= 2) {
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t off = 0; off < stride; off += 2) {
                double *p0 = raw + 2 * (base + off);
                double *p1 = p0 + 2 * stride;
                const __m256d a0 = _mm256_loadu_pd(p0);
                const __m256d a1 = _mm256_loadu_pd(p1);
                _mm256_storeu_pd(p0,
                                 _mm256_add_pd(cmul_pd(a0, u00r, u00i),
                                               cmul_pd(a1, u01r, u01i)));
                _mm256_storeu_pd(p1,
                                 _mm256_add_pd(cmul_pd(a0, u10r, u10i),
                                               cmul_pd(a1, u11r, u11i)));
            }
        }
        return;
    }
    // stride == 1: (a0, a1) pairs are adjacent in memory. Two pairs per
    // iteration, lanes reassembled with 128-bit permutes.
    std::size_t i = 0;
    for (; i + 4 <= dim; i += 4) {
        const __m256d lo = _mm256_loadu_pd(raw + 2 * i);
        const __m256d hi = _mm256_loadu_pd(raw + 2 * i + 4);
        const __m256d a0 = _mm256_permute2f128_pd(lo, hi, 0x20);
        const __m256d a1 = _mm256_permute2f128_pd(lo, hi, 0x31);
        const __m256d r0 = _mm256_add_pd(cmul_pd(a0, u00r, u00i),
                                         cmul_pd(a1, u01r, u01i));
        const __m256d r1 = _mm256_add_pd(cmul_pd(a0, u10r, u10i),
                                         cmul_pd(a1, u11r, u11i));
        _mm256_storeu_pd(raw + 2 * i,
                         _mm256_permute2f128_pd(r0, r1, 0x20));
        _mm256_storeu_pd(raw + 2 * i + 4,
                         _mm256_permute2f128_pd(r0, r1, 0x31));
    }
    if (i < dim)
        scalar_1q(amps, dim, stride, u, i, dim);
}

__attribute__((target("avx2"))) inline void
avx2_diag_1q_pd(std::complex<double> *amps, std::size_t dim,
                std::size_t stride, std::complex<double> d0,
                std::complex<double> d1)
{
    double *raw = reinterpret_cast<double *>(amps);
    if (stride >= 2) {
        const __m256d d0r = _mm256_set1_pd(d0.real());
        const __m256d d0i = _mm256_set1_pd(d0.imag());
        const __m256d d1r = _mm256_set1_pd(d1.real());
        const __m256d d1i = _mm256_set1_pd(d1.imag());
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t off = 0; off < stride; off += 2) {
                double *p0 = raw + 2 * (base + off);
                double *p1 = p0 + 2 * stride;
                _mm256_storeu_pd(
                    p0, cmul_pd(_mm256_loadu_pd(p0), d0r, d0i));
                _mm256_storeu_pd(
                    p1, cmul_pd(_mm256_loadu_pd(p1), d1r, d1i));
            }
        }
        return;
    }
    // stride == 1: lanes alternate d0/d1 — no shuffling needed, just a
    // mixed multiplier vector. dim is even by construction.
    const __m256d dr = _mm256_set_pd(d1.real(), d1.real(), d0.real(),
                                     d0.real());
    const __m256d di = _mm256_set_pd(d1.imag(), d1.imag(), d0.imag(),
                                     d0.imag());
    for (std::size_t i = 0; i + 2 <= dim; i += 2) {
        double *p = raw + 2 * i;
        _mm256_storeu_pd(p, cmul_pd(_mm256_loadu_pd(p), dr, di));
    }
}

__attribute__((target("avx2"))) inline void
avx2_2q_pd(std::complex<double> *amps, std::size_t dim, std::size_t m0,
           std::size_t m1, const std::complex<double> *u)
{
    double *raw = reinterpret_cast<double *>(amps);
    const std::size_t lo = m0 < m1 ? m0 : m1;
    const std::size_t hi = m0 < m1 ? m1 : m0;
    const std::size_t groups = dim >> 2;
    if (lo >= 2) {
        // Plain lanes: groups g, g+1 address adjacent amplitudes.
        for (std::size_t g = 0; g + 2 <= groups; g += 2) {
            const std::size_t i =
                insert_zero_bit(insert_zero_bit(g, lo), hi);
            const std::size_t idx[4] = {i, i | m1, i | m0, i | m0 | m1};
            __m256d in[4], out[4];
            for (std::size_t k = 0; k < 4; ++k)
                in[k] = _mm256_loadu_pd(raw + 2 * idx[k]);
            matvec_pd(u, 4, in, out);
            for (std::size_t r = 0; r < 4; ++r)
                _mm256_storeu_pd(raw + 2 * idx[r], out[r]);
        }
        if (groups & 1)
            scalar_2q(amps, m0, m1, lo, hi, u, groups - 1, groups);
        return;
    }
    // lo == 1: a qubit-0 operand. The two local slots split by the low
    // mask are memory-adjacent; reassemble lanes with 128-bit permutes.
    const std::size_t other = m0 == 1 ? m1 : m0;
    const std::size_t sx = m0 == 1 ? 2 : 1; // slot adjacent to slot 0
    const std::size_t sy = m0 == 1 ? 1 : 2; // slot adjacent to slot 3
    std::size_t g = 0;
    for (; g + 2 <= groups; g += 2) {
        const std::size_t ia =
            insert_zero_bit(insert_zero_bit(g, lo), hi);
        const std::size_t ib =
            insert_zero_bit(insert_zero_bit(g + 1, lo), hi);
        const __m256d a0 = _mm256_loadu_pd(raw + 2 * ia);
        const __m256d b0 = _mm256_loadu_pd(raw + 2 * ib);
        const __m256d a1 = _mm256_loadu_pd(raw + 2 * (ia | other));
        const __m256d b1 = _mm256_loadu_pd(raw + 2 * (ib | other));
        __m256d in[4], out[4];
        in[0] = _mm256_permute2f128_pd(a0, b0, 0x20);
        in[sx] = _mm256_permute2f128_pd(a0, b0, 0x31);
        in[sy] = _mm256_permute2f128_pd(a1, b1, 0x20);
        in[3] = _mm256_permute2f128_pd(a1, b1, 0x31);
        matvec_pd(u, 4, in, out);
        _mm256_storeu_pd(raw + 2 * ia,
                         _mm256_permute2f128_pd(out[0], out[sx], 0x20));
        _mm256_storeu_pd(raw + 2 * ib,
                         _mm256_permute2f128_pd(out[0], out[sx], 0x31));
        _mm256_storeu_pd(raw + 2 * (ia | other),
                         _mm256_permute2f128_pd(out[sy], out[3], 0x20));
        _mm256_storeu_pd(raw + 2 * (ib | other),
                         _mm256_permute2f128_pd(out[sy], out[3], 0x31));
    }
    if (g < groups)
        scalar_2q(amps, m0, m1, lo, hi, u, g, groups);
}

__attribute__((target("avx2"))) inline void
avx2_4q_pd(std::complex<double> *amps, std::size_t dim,
           const std::size_t *sorted, const std::size_t *offset,
           const std::complex<double> *u, const Nonzeros16 &nz)
{
    double *raw = reinterpret_cast<double *>(amps);
    const std::size_t groups = dim >> 4;
    if (sorted[0] >= 2) {
        for (std::size_t g = 0; g + 2 <= groups; g += 2) {
            std::size_t i = g;
            for (int a = 0; a < 4; ++a)
                i = insert_zero_bit(i, sorted[a]);
            __m256d in[16], out[16];
            for (std::size_t k = 0; k < 16; ++k)
                in[k] = _mm256_loadu_pd(raw + 2 * (i | offset[k]));
            matvec16_pd(u, nz, in, out);
            for (std::size_t r = 0; r < 16; ++r)
                _mm256_storeu_pd(raw + 2 * (i | offset[r]), out[r]);
        }
        if (groups & 1)
            scalar_4q(amps, sorted, offset, u, nz, groups - 1, groups);
        return;
    }
    // sorted[0] == 1: pair each slot with its low-mask partner (their
    // offsets differ by exactly 1, i.e. they are memory-adjacent).
    std::size_t pair_bit = 0;
    for (std::size_t k = 1; k < 16; ++k)
        if (offset[k] == 1)
            pair_bit = k;
    std::size_t g = 0;
    for (; g + 2 <= groups; g += 2) {
        std::size_t ia = g, ib = g + 1;
        for (int a = 0; a < 4; ++a) {
            ia = insert_zero_bit(ia, sorted[a]);
            ib = insert_zero_bit(ib, sorted[a]);
        }
        __m256d in[16], out[16];
        for (std::size_t k = 0; k < 16; ++k) {
            if (k & pair_bit)
                continue;
            const __m256d a = _mm256_loadu_pd(raw + 2 * (ia | offset[k]));
            const __m256d b = _mm256_loadu_pd(raw + 2 * (ib | offset[k]));
            in[k] = _mm256_permute2f128_pd(a, b, 0x20);
            in[k | pair_bit] = _mm256_permute2f128_pd(a, b, 0x31);
        }
        matvec16_pd(u, nz, in, out);
        for (std::size_t k = 0; k < 16; ++k) {
            if (k & pair_bit)
                continue;
            _mm256_storeu_pd(
                raw + 2 * (ia | offset[k]),
                _mm256_permute2f128_pd(out[k], out[k | pair_bit], 0x20));
            _mm256_storeu_pd(
                raw + 2 * (ib | offset[k]),
                _mm256_permute2f128_pd(out[k], out[k | pair_bit], 0x31));
        }
    }
    if (g < groups)
        scalar_4q(amps, sorted, offset, u, nz, g, groups);
}

// ---------------------------------------------------------------------
// AVX-512F (4 complex<double> lanes per zmm). Plain
// contiguous cases; smaller strides delegate to the AVX2 kernels
// (which remain bit-identical).

/** AVX-512 has no addsub: negate the real lanes of t2 and add, which
 *  is IEEE-identical to the subtraction (a - b == a + (-b)). */
__attribute__((target("avx512f"))) inline __m512d
cmul512_pd(__m512d a, __m512d wr, __m512d wi, __m512d negreal)
{
    const __m512d t1 = _mm512_mul_pd(a, wr);
    const __m512d sw = _mm512_permute_pd(a, 0x55);
    __m512d t2 = _mm512_mul_pd(sw, wi);
    t2 = _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(t2), _mm512_castpd_si512(negreal)));
    return _mm512_add_pd(t1, t2);
}

__attribute__((target("avx512f"))) inline __m512d
negreal512()
{
    return _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
}

/** matvec_pd on zmm lanes. */
__attribute__((target("avx512f"))) inline void
matvec512_pd(const std::complex<double> *u, std::size_t n,
             const __m512d *in, __m512d *out)
{
    const __m512d nr = negreal512();
    for (std::size_t r = 0; r < n; ++r) {
        __m512d acc = _mm512_setzero_pd();
        for (std::size_t c = 0; c < n; ++c) {
            const std::complex<double> w = u[r * n + c];
            acc = _mm512_add_pd(
                acc, cmul512_pd(in[c], _mm512_set1_pd(w.real()),
                                _mm512_set1_pd(w.imag()), nr));
        }
        out[r] = acc;
    }
}

/** matvec16_pd on zmm lanes. */
__attribute__((target("avx512f"))) inline void
matvec16_512_pd(const std::complex<double> *u, const Nonzeros16 &nz,
                const __m512d *in, __m512d *out)
{
    const __m512d nr = negreal512();
    for (std::size_t r = 0; r < 16; ++r) {
        __m512d acc = _mm512_setzero_pd();
        for (std::size_t t = nz.start[r]; t < nz.start[r + 1]; ++t) {
            const std::size_t c = nz.col[t];
            const std::complex<double> w = u[16 * r + c];
            acc = _mm512_add_pd(
                acc, cmul512_pd(in[c], _mm512_set1_pd(w.real()),
                                _mm512_set1_pd(w.imag()), nr));
        }
        out[r] = acc;
    }
}

__attribute__((target("avx512f"))) inline void
avx512_1q_pd(std::complex<double> *amps, std::size_t dim,
             std::size_t stride, const std::complex<double> *u)
{
    double *raw = reinterpret_cast<double *>(amps);
    const __m512d nr = negreal512();
    const __m512d u00r = _mm512_set1_pd(u[0].real());
    const __m512d u00i = _mm512_set1_pd(u[0].imag());
    const __m512d u01r = _mm512_set1_pd(u[1].real());
    const __m512d u01i = _mm512_set1_pd(u[1].imag());
    const __m512d u10r = _mm512_set1_pd(u[2].real());
    const __m512d u10i = _mm512_set1_pd(u[2].imag());
    const __m512d u11r = _mm512_set1_pd(u[3].real());
    const __m512d u11i = _mm512_set1_pd(u[3].imag());
    for (std::size_t base = 0; base < dim; base += 2 * stride) {
        for (std::size_t off = 0; off < stride; off += 4) {
            double *p0 = raw + 2 * (base + off);
            double *p1 = p0 + 2 * stride;
            const __m512d a0 = _mm512_loadu_pd(p0);
            const __m512d a1 = _mm512_loadu_pd(p1);
            _mm512_storeu_pd(
                p0, _mm512_add_pd(cmul512_pd(a0, u00r, u00i, nr),
                                  cmul512_pd(a1, u01r, u01i, nr)));
            _mm512_storeu_pd(
                p1, _mm512_add_pd(cmul512_pd(a0, u10r, u10i, nr),
                                  cmul512_pd(a1, u11r, u11i, nr)));
        }
    }
}

__attribute__((target("avx512f"))) inline void
avx512_diag_1q_pd(std::complex<double> *amps, std::size_t dim,
                  std::size_t stride, std::complex<double> d0,
                  std::complex<double> d1)
{
    double *raw = reinterpret_cast<double *>(amps);
    const __m512d nr = negreal512();
    const __m512d d0r = _mm512_set1_pd(d0.real());
    const __m512d d0i = _mm512_set1_pd(d0.imag());
    const __m512d d1r = _mm512_set1_pd(d1.real());
    const __m512d d1i = _mm512_set1_pd(d1.imag());
    for (std::size_t base = 0; base < dim; base += 2 * stride) {
        for (std::size_t off = 0; off < stride; off += 4) {
            double *p0 = raw + 2 * (base + off);
            double *p1 = p0 + 2 * stride;
            _mm512_storeu_pd(
                p0, cmul512_pd(_mm512_loadu_pd(p0), d0r, d0i, nr));
            _mm512_storeu_pd(
                p1, cmul512_pd(_mm512_loadu_pd(p1), d1r, d1i, nr));
        }
    }
}

__attribute__((target("avx512f"))) inline void
avx512_2q_pd(std::complex<double> *amps, std::size_t dim, std::size_t m0,
             std::size_t m1, const std::complex<double> *u)
{
    double *raw = reinterpret_cast<double *>(amps);
    const std::size_t lo = m0 < m1 ? m0 : m1;
    const std::size_t hi = m0 < m1 ? m1 : m0;
    const std::size_t groups = dim >> 2;
    for (std::size_t g = 0; g + 4 <= groups; g += 4) {
        const std::size_t i =
            insert_zero_bit(insert_zero_bit(g, lo), hi);
        const std::size_t idx[4] = {i, i | m1, i | m0, i | m0 | m1};
        __m512d in[4], out[4];
        for (std::size_t k = 0; k < 4; ++k)
            in[k] = _mm512_loadu_pd(raw + 2 * idx[k]);
        matvec512_pd(u, 4, in, out);
        for (std::size_t r = 0; r < 4; ++r)
            _mm512_storeu_pd(raw + 2 * idx[r], out[r]);
    }
    if (groups & 3)
        scalar_2q(amps, m0, m1, lo, hi, u, groups & ~std::size_t{3},
                  groups);
}

__attribute__((target("avx512f"))) inline void
avx512_4q_pd(std::complex<double> *amps, std::size_t dim,
             const std::size_t *sorted, const std::size_t *offset,
             const std::complex<double> *u, const Nonzeros16 &nz)
{
    double *raw = reinterpret_cast<double *>(amps);
    const std::size_t groups = dim >> 4;
    for (std::size_t g = 0; g + 4 <= groups; g += 4) {
        std::size_t i = g;
        for (int a = 0; a < 4; ++a)
            i = insert_zero_bit(i, sorted[a]);
        __m512d in[16], out[16];
        for (std::size_t k = 0; k < 16; ++k)
            in[k] = _mm512_loadu_pd(raw + 2 * (i | offset[k]));
        matvec16_512_pd(u, nz, in, out);
        for (std::size_t r = 0; r < 16; ++r)
            _mm512_storeu_pd(raw + 2 * (i | offset[r]), out[r]);
    }
    if (groups & 3)
        scalar_4q(amps, sorted, offset, u, nz, groups & ~std::size_t{3},
                  groups);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#pragma GCC pop_options
#endif

#endif // ELV_VEC_X86

// ---------------------------------------------------------------------
// Tier dispatch.

inline void
apply_1q(std::complex<double> *amps, std::size_t dim, std::size_t stride,
         const std::complex<double> *u)
{
#if ELV_VEC_X86
    const KernelTier tier = active_tier();
    if (tier == KernelTier::AVX512 && stride >= 4) {
        avx512_1q_pd(amps, dim, stride, u);
        return;
    }
    if (tier != KernelTier::Baseline) {
        avx2_1q_pd(amps, dim, stride, u);
        return;
    }
#endif
    scalar_1q(amps, dim, stride, u, 0, dim);
}

inline void
apply_diag_1q(std::complex<double> *amps, std::size_t dim, std::size_t stride,
              std::complex<double> d0, std::complex<double> d1)
{
#if ELV_VEC_X86
    const KernelTier tier = active_tier();
    if (tier == KernelTier::AVX512 && stride >= 4) {
        avx512_diag_1q_pd(amps, dim, stride, d0, d1);
        return;
    }
    if (tier != KernelTier::Baseline) {
        avx2_diag_1q_pd(amps, dim, stride, d0, d1);
        return;
    }
#endif
    scalar_diag_1q(amps, stride, d0, d1, 0, dim);
}

inline void
apply_2q(std::complex<double> *amps, std::size_t dim, std::size_t m0,
         std::size_t m1, const std::complex<double> *u)
{
    const std::size_t lo = m0 < m1 ? m0 : m1;
    const std::size_t hi = m0 < m1 ? m1 : m0;
#if ELV_VEC_X86
    const KernelTier tier = active_tier();
    if (tier == KernelTier::AVX512 && lo >= 4) {
        avx512_2q_pd(amps, dim, m0, m1, u);
        return;
    }
    if (tier != KernelTier::Baseline) {
        avx2_2q_pd(amps, dim, m0, m1, u);
        return;
    }
#endif
    scalar_2q(amps, m0, m1, lo, hi, u, 0, dim >> 2);
}

inline void
apply_4q(std::complex<double> *amps, std::size_t dim, std::size_t m0,
         std::size_t m1, std::size_t m2, std::size_t m3,
         const std::complex<double> *u)
{
    // Gather needs the insertion masks in ascending order; the local
    // basis order stays |q0 q1 q2 q3> via the offset table.
    std::size_t sorted[4] = {m0, m1, m2, m3};
    for (int a = 0; a < 4; ++a)
        for (int b = a + 1; b < 4; ++b)
            if (sorted[b] < sorted[a])
                std::swap(sorted[a], sorted[b]);
    std::size_t offset[16];
    for (std::size_t k = 0; k < 16; ++k)
        offset[k] = ((k & 8) ? m0 : 0) | ((k & 4) ? m1 : 0) |
                    ((k & 2) ? m2 : 0) | ((k & 1) ? m3 : 0);
    // Superoperators are sparse: every tier sums only the nonzeros.
    Nonzeros16 nz;
    list_nonzeros16(u, nz);
#if ELV_VEC_X86
    const KernelTier tier = active_tier();
    if (tier == KernelTier::AVX512 && sorted[0] >= 4) {
        avx512_4q_pd(amps, dim, sorted, offset, u, nz);
        return;
    }
    if (tier != KernelTier::Baseline) {
        avx2_4q_pd(amps, dim, sorted, offset, u, nz);
        return;
    }
#endif
    scalar_4q(amps, sorted, offset, u, nz, 0, dim >> 4);
}

/** out += a * b for row-major 16x16 matrices (see scalar_matmul16). */
inline void
matmul16(const std::complex<double> *a, const std::complex<double> *b,
         std::complex<double> *out)
{
#if ELV_VEC_X86
    if (active_tier() != KernelTier::Baseline) {
        avx2_matmul16_pd(a, b, out);
        return;
    }
#endif
    scalar_matmul16(a, b, out);
}

} // namespace elv::sim::vec
