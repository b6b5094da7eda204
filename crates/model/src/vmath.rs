//! Batched `exp` and `tanh` that return exactly libm's bits, a slice at
//! a time.
//!
//! Softmax, cross-entropy, the sampler and GELU each call one
//! transcendental per element. As opaque libm calls those keep the loops
//! around them scalar; here each is a port of the libm routine this
//! platform runs, computed several lanes per instruction, so every
//! trained weight and every sampled token stays what libm would have
//! made it.
//!
//! * **exp** ports glibc's `expf` as glibc runs it on CPUs with AVX2 and
//!   FMA (its `__expf_fma` build): a 32-entry `2^(i/32)` table and a
//!   cubic in `f64`, with the fused multiply-adds that build's compiler
//!   formed, four lanes per AVX2 instruction. Only fused steps round the
//!   same way, so the port runs only where [`is_x86_feature_detected!`]
//!   finds both features — exactly where glibc picks that build. Anywhere
//!   else, and for a slice holding a NaN or an input above `expf`'s
//!   overflow threshold (~88.72), the slice calls libm itself.
//! * **tanh** ports fdlibm's `tanhf` (through its `expm1f`) branch-free:
//!   every path an input can reach is computed per lane and one is
//!   selected, so the compiler vectorizes the loop. It is plain `f32`
//!   arithmetic, exact under any codegen; AVX2 only makes it wider. A
//!   slice holding a NaN or an infinity calls libm.
//!
//! Each slice that calls libm instead adds one to the counter
//! `model.vmath.libm_slices`, so a host without AVX2+FMA, or non-finite
//! activations, shows in `--metrics`. The exhaustive sweeps in the tests
//! (`--ignored`) check both ports against libm on all 2³² inputs.

/// `expf`'s overflow threshold, `0x1.62e42ep6` (≈ 88.72); a slice holding
/// a larger input (or a NaN) calls libm.
const EXP_MAX: f32 = f32::from_bits(0x42b1_7217);
/// Below `-0x1.9fe368p6` (≈ −103.97), −∞ included, `expf` returns +0.
const EXP_MIN: f32 = f32::from_bits(0xc2cf_f1b4);
/// `32 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.8p52`: adding it rounds `x·32/ln 2` to an integer `k` held in the
/// low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic for `2^(r/32)`, scaled by powers of 32: `C0·r³ + C1·r² +
/// C2·r + 1`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// `bits(2^(i/32)) − (i << 47)`: adding `k << 47` to entry `k % 32`
/// gives the bits of `2^(k/32)`.
const EXP_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `exp` of every element, in place, with libm's bits.
pub(crate) fn exp_inplace(xs: &mut [f32]) {
    if !exp_vector(xs) {
        libm(xs, f32::exp);
    }
}

/// `tanh` of every element, in place, with libm's bits.
pub(crate) fn tanh_inplace(xs: &mut [f32]) {
    if !tanh_vector(xs) {
        libm(xs, f32::tanh);
    }
}

/// The counted fallback: libm on every element.
fn libm(xs: &mut [f32], f: fn(f32) -> f32) {
    pyranet_obs::global().counter("model.vmath.libm_slices").inc();
    for x in xs {
        *x = f(*x);
    }
}

/// Runs the `expf` port over `xs` when this CPU has AVX2 and FMA and no
/// input is NaN or above [`EXP_MAX`]. Returns whether it ran; `xs` is
/// untouched when it did not.
fn exp_vector(xs: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: both target features were just detected on this CPU.
        return unsafe { exp_avx2_fma(xs) };
    }
    let _ = xs;
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn exp_avx2_fma(xs: &mut [f32]) -> bool {
    use std::arch::x86_64::{_mm_loadu_ps, _mm_storeu_ps};
    if xs.iter().fold(false, |out, &x| out | (x > EXP_MAX) | x.is_nan()) {
        return false;
    }
    let mut quads = xs.chunks_exact_mut(4);
    for q in &mut quads {
        // SAFETY: `q` holds four f32s, the 16 bytes this loads and stores.
        unsafe { _mm_storeu_ps(q.as_mut_ptr(), exp4(_mm_loadu_ps(q.as_ptr()))) };
    }
    let rest = quads.into_remainder();
    if !rest.is_empty() {
        let mut pad = [0.0f32; 4];
        pad[..rest.len()].copy_from_slice(rest);
        // SAFETY: `pad` holds four f32s.
        unsafe { _mm_storeu_ps(pad.as_mut_ptr(), exp4(_mm_loadu_ps(pad.as_ptr()))) };
        rest.copy_from_slice(&pad[..rest.len()]);
    }
    true
}

/// glibc's `expf` of four lanes, each `≤ EXP_MAX`, as its FMA build rounds
/// it. The table lookup is an explicit gather: the compiler's cost model
/// will not vectorize one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
fn exp4(x: std::arch::x86_64::__m128) -> std::arch::x86_64::__m128 {
    use std::arch::x86_64::*;
    let inv_ln2_n = _mm256_set1_pd(INV_LN2_N);
    let shift = _mm256_set1_pd(SHIFT);
    // x·32/ln 2 = k + r, k an integer and |r| ≤ 1/2.
    let xd = _mm256_cvtps_pd(x);
    let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
    let r = _mm256_fmsub_pd(inv_ln2_n, xd, _mm256_sub_pd(kd, shift));
    // exp(x) = 2^(k/32) · 2^(r/32).
    let ki = _mm256_castpd_si256(kd);
    let i = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    // SAFETY: every index is masked to 0..32, inside `EXP_TAB`.
    let t = unsafe { _mm256_i64gather_epi64::<8>(EXP_TAB.as_ptr().cast(), i) };
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let z = _mm256_fmadd_pd(_mm256_set1_pd(C0), r, _mm256_set1_pd(C1));
    let y = _mm256_fmadd_pd(_mm256_set1_pd(C2), r, _mm256_set1_pd(1.0));
    let y = _mm256_mul_pd(_mm256_fmadd_pd(z, _mm256_mul_pd(r, r), y), s);
    let under = _mm_cmp_ps::<_CMP_LT_OQ>(x, _mm_set1_ps(EXP_MIN));
    _mm_andnot_ps(under, _mm256_cvtpd_ps(y))
}

/// Runs the `tanhf` port over `xs` unless an input is NaN or infinite.
/// Returns whether it ran; `xs` is untouched when it did not.
fn tanh_vector(xs: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the target feature was just detected on this CPU.
        return unsafe { tanh_avx2(xs) };
    }
    tanh_lanes(xs)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tanh_avx2(xs: &mut [f32]) -> bool {
    tanh_lanes(xs)
}

#[inline(always)]
fn tanh_lanes(xs: &mut [f32]) -> bool {
    let exp_mask = 0x7f80_0000;
    if xs.iter().fold(false, |out, &x| out | (x.to_bits() & exp_mask == exp_mask)) {
        return false;
    }
    for x in xs {
        *x = tanh_lane(*x);
    }
    true
}

// fdlibm's `expm1f` constants.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// fdlibm's `tanhf` for finite `x`, every reachable path computed and one
/// selected.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    // |x|, clamped at 22 (NaN and ±∞ too) so `k` below is in range for
    // any input; lanes at 22 or beyond select ±1.
    let ax = f32::from_bits(ix);
    let ax = if ax < 22.0 { ax } else { 22.0 };
    // tanh takes expm1(2|x|) for |x| ≥ 1, else expm1(−2|x|).
    let big = ax >= 1.0;
    let a = if big { 2.0 * ax } else { -2.0 * ax };
    let em = expm1_lane(a, big);
    let z = if big { 1.0 - 2.0 / (em + 2.0) } else { -em / (em + 2.0) };
    // |x| ≥ 22: `1 − 1e-30` rounds to 1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let z = if x.is_sign_negative() { -z } else { z };
    // |x| < 2⁻⁵⁵ (±0 included).
    if ix < 0x2400_0000 {
        x * (1.0 + x)
    } else {
        z
    }
}

/// fdlibm's `expm1f(a)` for the arguments [`tanh_lane`] passes: `a` in
/// `[2, 44]` (`pos`) or `[−2, 0]`. Every path those reach is computed;
/// `k` is the power of two the argument reduction takes out.
#[inline(always)]
fn expm1_lane(a: f32, pos: bool) -> f32 {
    let ha = a.to_bits() & 0x7fff_ffff;
    let half = if pos { 0.5 } else { -0.5 };
    // SAFETY: |a| ≤ 44, so the value is within ±64: finite and in range.
    let kr: i32 = unsafe { (INV_LN2 * a + half).to_int_unchecked() };
    // |a| ≤ ln2/2 keeps k = 0; below 1.5·ln2 (negative `a` only: the
    // positive ones are ≥ 2) k = −1.
    let k = if ha <= 0x3eb1_7218 {
        0
    } else if ha < 0x3f85_1592 {
        -1
    } else {
        kr
    };
    // a = k·ln2 + (hi − lo); for k = 0 this leaves xr = a and c = 0.
    let t = k as f32;
    let hi = a - t * LN2_HI;
    let lo = t * LN2_LO;
    let xr = hi - lo;
    let c = (hi - xr) - lo;
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let tt = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - tt) / (6.0 - xr * tt));
    let k0 = xr - (xr * e - hxs);
    let e = xr * (e - c) - c - hxs;
    let m1 = 0.5 * (xr - e) - 0.5;
    // Adds k to the exponent of y.
    let scale =
        |y: f32| f32::from_bits((y.to_bits() as i32).wrapping_add(k.wrapping_shl(23)) as u32);
    let far = scale(1.0 - (e - xr)) - 1.0;
    // 1 − 2⁻ᵏ and 2⁻ᵏ.
    let one_minus =
        f32::from_bits(0x3f80_0000i32.wrapping_sub(0x0100_0000i32.wrapping_shr(k as u32)) as u32);
    let below_23 = scale(one_minus - (e - xr));
    let pow = f32::from_bits((0x7fi32.wrapping_sub(k)).wrapping_shl(23) as u32);
    let upto_56 = scale(xr - (e + pow) + 1.0);
    let em = if k == 0 {
        k0
    } else if k == -1 {
        m1
    } else if k <= -2 || k > 56 {
        far
    } else if k < 23 {
        below_23
    } else {
        upto_56
    };
    // |a| < 2⁻²⁵: expm1 returns its argument.
    if ha < 0x3300_0000 {
        a
    } else {
        em
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks `kernel` against `oracle` on every `step`-th bit pattern
    /// that `domain` admits, 64K inputs per call so the kernel runs
    /// vectorized. Returns false (checking nothing) when the kernel
    /// declines an in-domain slice, i.e. this CPU lacks its features.
    fn sweep(
        step: u64,
        domain: fn(f32) -> bool,
        kernel: fn(&mut [f32]) -> bool,
        oracle: fn(f32) -> f32,
    ) -> bool {
        let mut xs = Vec::with_capacity(1 << 16);
        let mut bits = 0u64;
        while bits < 1 << 32 {
            xs.clear();
            while xs.len() < 1 << 16 && bits < 1 << 32 {
                let x = f32::from_bits(bits as u32);
                if domain(x) {
                    xs.push(x);
                }
                bits += step;
            }
            let mut ys = xs.clone();
            if !kernel(&mut ys) {
                return false;
            }
            for (x, y) in xs.iter().zip(&ys) {
                let want = oracle(*x);
                assert_eq!(
                    y.to_bits(),
                    want.to_bits(),
                    "{x:e} ({:#010x}): {y:e} vs libm {want:e}",
                    x.to_bits()
                );
            }
        }
        true
    }

    fn exp_domain(x: f32) -> bool {
        x <= EXP_MAX
    }

    fn sweep_exp(step: u64) {
        if !sweep(step, exp_domain, exp_vector, f32::exp) {
            eprintln!("no AVX2+FMA on this CPU: exp_inplace calls libm, nothing to sweep");
        }
    }

    fn sweep_tanh(step: u64) {
        assert!(
            sweep(step, f32::is_finite, tanh_vector, f32::tanh),
            "the tanh lane declined finite inputs"
        );
    }

    /// `x` and the floats one ulp either side of it.
    fn with_neighbours(xs: &[f32]) -> Vec<f32> {
        xs.iter().flat_map(|&x| [x.next_down(), x, x.next_up()]).collect()
    }

    /// Each input alone through the public entry, then every input in
    /// one slice (with those that force libm taken out) so the vector
    /// body runs too.
    fn check_named(xs: &[f32], f: fn(&mut [f32]), oracle: fn(f32) -> f32, vector: fn(f32) -> bool) {
        for &x in xs {
            let mut y = [x];
            f(&mut y);
            let want = oracle(x);
            assert!(
                y[0].to_bits() == want.to_bits() || (y[0].is_nan() && want.is_nan()),
                "{x:e} ({:#010x}): {:e} vs libm {want:e}",
                x.to_bits(),
                y[0]
            );
        }
        let batch: Vec<f32> = xs.iter().copied().filter(|&x| vector(x)).collect();
        let mut ys = batch.clone();
        f(&mut ys);
        for (x, y) in batch.iter().zip(&ys) {
            assert_eq!(
                y.to_bits(),
                oracle(*x).to_bits(),
                "{x:e} ({:#010x}) in a batch",
                x.to_bits()
            );
        }
    }

    #[test]
    fn exp_matches_libm_on_named_inputs() {
        let named = [
            // Where plain mul+add in place of the fused steps rounds
            // differently from glibc's FMA build.
            f32::from_bits(0x4202_422f),
            f32::from_bits(0xc27c_65d9),
            // The underflow-to-zero edge, and results in the subnormal
            // range above it.
            EXP_MIN,
            -103.0,
            -100.5,
            -95.25,
            -87.5,
            f32::from_bits(0xc2ae_ac4f),
            // The overflow edge: at and below it the port, above it libm.
            EXP_MAX,
            88.0,
            f32::NEG_INFINITY,
            f32::INFINITY,
            f32::NAN,
            0.0,
            -0.0,
            1.0,
            -1.0,
        ];
        check_named(&with_neighbours(&named), exp_inplace, f32::exp, exp_domain);
    }

    #[test]
    fn tanh_matches_libm_on_named_inputs() {
        let edges = [
            0.0,
            f32::from_bits(0x2400_0000), // 2⁻⁵⁵
            f32::from_bits(0x3280_0000), // 2⁻²⁶: expm1's |a| < 2⁻²⁵
            f32::from_bits(0x3e31_7218), // ≈ 0.1733: k = 0 / −1
            f32::from_bits(0x3f05_1592), // ≈ 0.5199: k = −1 / ≤ −2
            1.0,
            f32::from_bits(0x40f9_8872), // ≈ 7.80: k 22 → 23
            f32::from_bits(0x419c_a6b9), // ≈ 19.58: k 56 → 57
            22.0,
            f32::INFINITY,
            f32::NAN,
        ];
        // The two k edges are where expm1's k steps, as it computes k.
        let k = |x: f32| (INV_LN2 * (2.0 * x) + 0.5) as i32;
        for (x, at) in [(edges[6], 23), (edges[7], 57)] {
            assert_eq!((k(x.next_down()), k(x)), (at - 1, at), "{x:e}");
        }
        let named: Vec<f32> = edges.iter().flat_map(|&x| [x, -x]).collect();
        check_named(&with_neighbours(&named), tanh_inplace, f32::tanh, f32::is_finite);
    }

    #[test]
    fn a_slice_that_takes_libm_is_counted() {
        let counter = pyranet_obs::global().counter("model.vmath.libm_slices");
        let before = counter.get();
        let mut xs = [0.5, f32::NAN, -1.0];
        tanh_inplace(&mut xs);
        exp_inplace(&mut xs);
        assert!(xs[1].is_nan() && xs[0].to_bits() == 0.5f32.tanh().exp().to_bits());
        assert!(counter.get() >= before + 2, "both NaN slices took libm");
    }

    #[test]
    fn exp_matches_libm_on_a_strided_sweep() {
        sweep_exp(97);
    }

    #[test]
    fn tanh_matches_libm_on_a_strided_sweep() {
        sweep_tanh(97);
    }

    #[test]
    #[ignore = "all 2³² inputs; about half a minute in release"]
    fn exp_matches_libm_on_every_input() {
        sweep_exp(1);
    }

    #[test]
    #[ignore = "all 2³² inputs; about two minutes in release"]
    fn tanh_matches_libm_on_every_input() {
        sweep_tanh(1);
    }
}
