/**
 * @file
 * Lane-batched kernels behind sim::StateBatch.
 *
 * A batch holds B states ("lanes") of one register in split planes:
 * the real part of amplitude k of lane b at re[k * B + b], the
 * imaginary part at im[k * B + b]. A gate touches the same amplitude
 * rows in every lane, so a kernel walks rows exactly as the
 * state-vector kernels (vec_complex.hpp) walk amplitudes and runs
 * across the lanes of each row. Split planes need no shuffles.
 *
 * Each kernel is written once against a lane type V (vec_lanes.hpp):
 * double for the baseline tier and for the lanes that do not fill a
 * vector, Lanes4 for AVX2, Lanes8 for AVX-512, and dispatch() runs it
 * in the active tier's entry point.
 *
 * Each lane does the scalar tier's multiply/add sequence on its own
 * amplitudes: the complex product as (ac - bd, ad + bc) with separate
 * multiplies and adds (no FMA contraction), the 2x2 matvec as
 * u0*a0 + u1*a1 and the 4x4 one accumulated from zero in column
 * order. A lane is therefore bit-identical to the same state replayed
 * through StateVector, under any tier.
 *
 * Gate matrices are coefficient arrays in Mat2/Mat4 memory order:
 * entry (r, c) of an n x n matrix has its real part at 2 (n r + c) and
 * its imaginary part right after. A shared matrix (PerLane = false)
 * gives every lane coefficient k at u[k]; a per-lane one gives lane b
 * its coefficient k at u[k * us + b].
 */
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "sim/vec_lanes.hpp"

namespace elv::sim::vec {

// ---------------------------------------------------------------------
// Lane-type primitives. V is passed by reference only.

template <typename V>
[[gnu::always_inline]] inline double
get_lane(const V &v, [[maybe_unused]] std::size_t w)
{
    if constexpr (std::is_same_v<V, double>)
        return v;
    else
        return v[w];
}

template <typename V>
[[gnu::always_inline]] inline void
set_lane(V &v, [[maybe_unused]] std::size_t w, double x)
{
    if constexpr (std::is_same_v<V, double>)
        v = x;
    else
        v[w] = x;
}

/** |v| per lane: clears the sign bit, as std::abs does. */
template <typename V>
[[gnu::always_inline]] inline void
clear_sign(V &v)
{
    typename LaneBits<V>::type bits;
    std::memcpy(&bits, &v, sizeof v);
    bits &= ~(std::uint64_t{1} << 63);
    std::memcpy(&v, &bits, sizeof v);
}

/** A shared matrix's coefficients, splatted once per gate. */
template <bool PerLane, typename V, std::size_t N>
[[gnu::always_inline]] inline void
splat_shared(V (&shared)[N], const double *u)
{
    if constexpr (!PerLane)
        for (std::size_t k = 0; k < N; ++k)
            splat(shared[k], u[k]);
}

/** Coefficients [0, N) for the lanes at b: the shared matrix's
 *  splats, or the lanes' own planes loaded into `loaded`. */
template <bool PerLane, typename V, std::size_t N>
[[gnu::always_inline]] inline const V *
coefs([[maybe_unused]] V (&loaded)[N], const V (&shared)[N],
      [[maybe_unused]] const double *u, [[maybe_unused]] std::size_t us,
      [[maybe_unused]] std::size_t b)
{
    if constexpr (!PerLane) {
        return shared;
    } else {
        for (std::size_t k = 0; k < N; ++k)
            load(loaded[k], u + k * us + b);
        return loaded;
    }
}

/** Row index of 2-qubit group g: g with zero bits inserted at the
 *  masks lo < hi. */
inline std::size_t
group_row(std::size_t g, std::size_t lo, std::size_t hi)
{
    return insert_zero_bit(insert_zero_bit(g, lo), hi);
}

// ---------------------------------------------------------------------
// Lane groups: each function below handles lanes [b, b + kWidth<V>) of
// one row, pair or group of rows.

template <bool PerLane, typename V>
[[gnu::always_inline]] inline void
lanes_1q(double *r0, double *i0, double *r1, double *i1,
         const V (&shared)[8], const double *u, std::size_t us,
         std::size_t b)
{
    V loaded[8];
    const V *c = coefs<PerLane>(loaded, shared, u, us, b);
    V a0r, a0i, a1r, a1i;
    load(a0r, r0 + b);
    load(a0i, i0 + b);
    load(a1r, r1 + b);
    load(a1i, i1 + b);
    const V n0r = (c[0] * a0r - c[1] * a0i) + (c[2] * a1r - c[3] * a1i);
    const V n0i = (c[0] * a0i + c[1] * a0r) + (c[2] * a1i + c[3] * a1r);
    const V n1r = (c[4] * a0r - c[5] * a0i) + (c[6] * a1r - c[7] * a1i);
    const V n1i = (c[4] * a0i + c[5] * a0r) + (c[6] * a1i + c[7] * a1r);
    store(r0 + b, n0r);
    store(i0 + b, n0i);
    store(r1 + b, n1r);
    store(i1 + b, n1i);
}

/** Row (r, i) times the diagonal entry whose coefficients start at k. */
template <bool PerLane, typename V>
[[gnu::always_inline]] inline void
lanes_diag(double *r, double *i, const V (&shared)[8], const double *u,
           std::size_t k, std::size_t us, std::size_t b)
{
    V dr, di;
    if constexpr (PerLane) {
        load(dr, u + k * us + b);
        load(di, u + (k + 1) * us + b);
    } else {
        dr = shared[k];
        di = shared[k + 1];
    }
    V ar, ai;
    load(ar, r + b);
    load(ai, i + b);
    const V nr = ar * dr - ai * di;
    const V ni = ar * di + ai * dr;
    store(r + b, nr);
    store(i + b, ni);
}

template <bool PerLane, typename V>
[[gnu::always_inline]] inline void
lanes_2q(double *const *r, double *const *i, const V (&shared)[32],
         const double *u, std::size_t us, std::size_t b)
{
    V loaded[32];
    const V *c = coefs<PerLane>(loaded, shared, u, us, b);
    V inr[4], ini[4];
    for (std::size_t col = 0; col < 4; ++col) {
        load(inr[col], r[col] + b);
        load(ini[col], i[col] + b);
    }
    for (std::size_t row = 0; row < 4; ++row) {
        V accr, acci;
        splat(accr, 0.0);
        splat(acci, 0.0);
        for (std::size_t col = 0; col < 4; ++col) {
            const V &ur = c[2 * (4 * row + col)];
            const V &ui = c[2 * (4 * row + col) + 1];
            accr = accr + (ur * inr[col] - ui * ini[col]);
            acci = acci + (ur * ini[col] + ui * inr[col]);
        }
        store(r[row] + b, accr);
        store(i[row] + b, acci);
    }
}

/** Swap rows x and y, or negate x when y is null. */
template <typename V>
[[gnu::always_inline]] inline void
lanes_permute(double *x, double *y, std::size_t b)
{
    V vx;
    load(vx, x + b);
    if (!y) {
        const V negated = -vx;
        store(x + b, negated);
        return;
    }
    V vy;
    load(vy, y + b);
    store(x + b, vy);
    store(y + b, vx);
}

/**
 * StateVector::set_amplitude_embedding per lane: feature f of lane b
 * at x[f * xs + b]. The caller zeroes every row first.
 */
template <typename V>
[[gnu::always_inline]] inline void
lanes_amp_embed(double *re, double *im, std::size_t lanes, const double *x,
                std::size_t xs, std::size_t features, std::size_t b)
{
    V ss;
    splat(ss, 0.0);
    for (std::size_t f = 0; f < features; ++f) {
        V v;
        load(v, x + f * xs + b);
        ss = ss + v * v;
    }
    V inv;
    for (std::size_t w = 0; w < kWidth<V>; ++w) {
        const double s = get_lane(ss, w);
        set_lane(inv, w, s <= 0.0 ? 0.0 : 1.0 / std::sqrt(s));
    }
    V zero;
    splat(zero, 0.0);
    for (std::size_t f = 0; f < features; ++f) {
        V v;
        load(v, x + f * xs + b);
        const V scaled = v * inv;
        store(re + f * lanes + b, scaled);
        store(im + f * lanes + b, zero);
    }
    // A lane with no mass is |0...0>.
    for (std::size_t w = 0; w < kWidth<V>; ++w) {
        if (!(get_lane(ss, w) <= 0.0))
            continue;
        for (std::size_t f = 0; f < features; ++f)
            re[f * lanes + b + w] = 0.0;
        re[b + w] = 1.0;
    }
}

/** out += |amplitude|^2 per lane, summed as re^2 + im^2. */
template <typename V>
[[gnu::always_inline]] inline void
lanes_probs(const double *r, const double *i, double *out, std::size_t b)
{
    V vr, vi, vo;
    load(vr, r + b);
    load(vi, i + b);
    load(vo, out + b);
    const V sum = vo + (vr * vr + vi * vi);
    store(out + b, sum);
}

/**
 * acc[j..] = sum over outcomes o of |dists[o d + i] - dists[o d + j]|,
 * from +0 in outcome order, for G lane groups at once: their sums are
 * independent chains, so G of them hide the latency of the adds.
 */
template <typename V, std::size_t G>
[[gnu::always_inline]] inline void
lanes_abs_diff(const double *dists, std::size_t outcomes, std::size_t d,
               std::size_t i, double *acc, std::size_t j)
{
    V sum[G];
    for (V &s : sum)
        splat(s, 0.0);
    for (std::size_t o = 0; o < outcomes; ++o) {
        V p;
        splat(p, dists[o * d + i]);
        for (std::size_t g = 0; g < G; ++g) {
            V diff;
            load(diff, dists + o * d + j + g * kWidth<V>);
            diff = p - diff;
            clear_sign(diff);
            sum[g] = sum[g] + diff;
        }
    }
    for (std::size_t g = 0; g < G; ++g)
        store(acc + j + g * kWidth<V>, sum[g]);
}

// ---------------------------------------------------------------------
// Kernels: run<V> walks the rows, vector lanes first, then the tail.

/** Dense 1-qubit gate on rows split by `stride` (the qubit's mask). */
template <bool PerLane>
struct Dense1q
{
    template <typename V>
    [[gnu::always_inline]] static void
    run(double *re, double *im, std::size_t lanes, std::size_t dim,
        std::size_t stride, const double *u, std::size_t us)
    {
        V vs[8] = {};
        double ds[8] = {};
        splat_shared<PerLane>(vs, u);
        splat_shared<PerLane>(ds, u);
        const std::size_t full = lanes - lanes % kWidth<V>;
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t off = 0; off < stride; ++off) {
                double *r0 = re + (base + off) * lanes;
                double *i0 = im + (base + off) * lanes;
                double *r1 = r0 + stride * lanes;
                double *i1 = i0 + stride * lanes;
                for (std::size_t b = 0; b < full; b += kWidth<V>)
                    lanes_1q<PerLane>(r0, i0, r1, i1, vs, u, us, b);
                for (std::size_t b = full; b < lanes; ++b)
                    lanes_1q<PerLane>(r0, i0, r1, i1, ds, u, us, b);
            }
        }
    }
};

/** Diagonal 1-qubit gate: a row with the qubit's bit clear takes
 *  entry (0, 0) (coefficients 0, 1), one with it set (1, 1) (6, 7). */
template <bool PerLane>
struct Diagonal1q
{
    template <typename V>
    [[gnu::always_inline]] static void
    run(double *re, double *im, std::size_t lanes, std::size_t dim,
        std::size_t stride, const double *u, std::size_t us)
    {
        V vs[8] = {};
        double ds[8] = {};
        splat_shared<PerLane>(vs, u);
        splat_shared<PerLane>(ds, u);
        const std::size_t full = lanes - lanes % kWidth<V>;
        for (std::size_t row = 0; row < dim; ++row) {
            const std::size_t k = (row & stride) ? 6 : 0;
            double *r = re + row * lanes;
            double *i = im + row * lanes;
            for (std::size_t b = 0; b < full; b += kWidth<V>)
                lanes_diag<PerLane>(r, i, vs, u, k, us, b);
            for (std::size_t b = full; b < lanes; ++b)
                lanes_diag<PerLane>(r, i, ds, u, k, us, b);
        }
    }
};

/** Dense 2-qubit gate in the local basis |q0 q1> (masks m0, m1). */
template <bool PerLane>
struct Dense2q
{
    template <typename V>
    [[gnu::always_inline]] static void
    run(double *re, double *im, std::size_t lanes, std::size_t dim,
        std::size_t m0, std::size_t m1, const double *u, std::size_t us)
    {
        V vs[32] = {};
        double ds[32] = {};
        splat_shared<PerLane>(vs, u);
        splat_shared<PerLane>(ds, u);
        const std::size_t full = lanes - lanes % kWidth<V>;
        for (std::size_t g = 0; g < (dim >> 2); ++g) {
            const std::size_t base =
                group_row(g, m0 < m1 ? m0 : m1, m0 < m1 ? m1 : m0);
            const std::size_t idx[4] = {base, base | m1, base | m0,
                                        base | m0 | m1};
            double *r[4], *i[4];
            for (std::size_t k = 0; k < 4; ++k) {
                r[k] = re + idx[k] * lanes;
                i[k] = im + idx[k] * lanes;
            }
            for (std::size_t b = 0; b < full; b += kWidth<V>)
                lanes_2q<PerLane>(r, i, vs, u, us, b);
            for (std::size_t b = full; b < lanes; ++b)
                lanes_2q<PerLane>(r, i, ds, u, us, b);
        }
    }
};

/**
 * The permutation kernel: for the row g_i of every 2-qubit group (the
 * bits of masks lo < hi clear), swap rows g_i|a and g_i|b of every
 * lane (CX, SWAP) or, when a == b, negate row g_i|a (CZ). Exact moves
 * and sign flips, as StateVector's permutation kernels make.
 */
struct Permute
{
    template <typename V>
    [[gnu::always_inline]] static void
    run(double *re, double *im, std::size_t lanes, std::size_t dim,
        std::size_t lo, std::size_t hi, std::size_t a, std::size_t b)
    {
        const std::size_t full = lanes - lanes % kWidth<V>;
        for (std::size_t g = 0; g < (dim >> 2); ++g) {
            const std::size_t row = group_row(g, lo, hi);
            for (double *plane : {re, im}) {
                double *x = plane + (row | a) * lanes;
                double *y = a == b ? nullptr : plane + (row | b) * lanes;
                for (std::size_t k = 0; k < full; k += kWidth<V>)
                    lanes_permute<V>(x, y, k);
                for (std::size_t k = full; k < lanes; ++k)
                    lanes_permute<double>(x, y, k);
            }
        }
    }
};

/** Amplitude embedding of every lane (see lanes_amp_embed). */
struct AmpEmbed
{
    template <typename V>
    [[gnu::always_inline]] static void
    run(double *re, double *im, std::size_t lanes, const double *x,
        std::size_t xs, std::size_t features)
    {
        const std::size_t full = lanes - lanes % kWidth<V>;
        for (std::size_t b = 0; b < full; b += kWidth<V>)
            lanes_amp_embed<V>(re, im, lanes, x, xs, features, b);
        for (std::size_t b = full; b < lanes; ++b)
            lanes_amp_embed<double>(re, im, lanes, x, xs, features, b);
    }
};

/**
 * out[outcome[k] * os + b] += |amplitude k of lane b|^2 for every row
 * k in ascending order (the caller zeroes the outcome rows).
 */
struct Probabilities
{
    template <typename V>
    [[gnu::always_inline]] static void
    run(const double *re, const double *im, std::size_t lanes,
        std::size_t dim, const std::size_t *outcome, double *out,
        std::size_t os)
    {
        const std::size_t full = lanes - lanes % kWidth<V>;
        for (std::size_t row = 0; row < dim; ++row) {
            const double *r = re + row * lanes;
            const double *i = im + row * lanes;
            double *o = out + outcome[row] * os;
            for (std::size_t b = 0; b < full; b += kWidth<V>)
                lanes_probs<V>(r, i, o, b);
            for (std::size_t b = full; b < lanes; ++b)
                lanes_probs<double>(r, i, o, b);
        }
    }
};

/**
 * acc[j] = sum over outcomes o of |dists[o d + i] - dists[o d + j]|
 * for j in (i, d), each sum from +0 in outcome order: the L1 distances
 * of state i's outcome distribution to every later state's, in the
 * outcome-major layout StateBatch::probabilities writes.
 */
struct AbsDiffRows
{
    template <typename V>
    [[gnu::always_inline]] static void
    run(const double *dists, std::size_t outcomes, std::size_t d,
        std::size_t i, double *acc)
    {
        std::size_t j = i + 1;
        for (; j + 4 * kWidth<V> <= d; j += 4 * kWidth<V>)
            lanes_abs_diff<V, 4>(dists, outcomes, d, i, acc, j);
        for (; j + kWidth<V> <= d; j += kWidth<V>)
            lanes_abs_diff<V, 1>(dists, outcomes, d, i, acc, j);
        for (; j < d; ++j)
            lanes_abs_diff<double, 1>(dists, outcomes, d, i, acc, j);
    }
};

} // namespace elv::sim::vec
