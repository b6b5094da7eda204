//! Tape-based reverse-mode autograd over 2-D `f32` tensors.
//!
//! The design is define-by-run: a [`Graph`] is built per training step,
//! forward values are computed eagerly, and [`Graph::backward`] replays the
//! tape in reverse. Tensors are row-major `[rows, cols]` matrices; vectors
//! are `[1, n]`.
//!
//! # Kernel layout
//!
//! The matmul family (forward and backward) runs through the kernels in
//! [`kernels`], selected per graph by [`KernelMode`] (see
//! [`Graph::with_kernels`]). The `Blocked` and `Reference` families
//! accumulate each output element in ascending shared-dimension order and
//! are **bit-identical** on finite inputs — see the equivalence property
//! tests. Causal multi-head attention is one op
//! ([`Graph::causal_attention`]) whose `Blocked` kernels touch only the
//! lower triangle of each head's scores. Softmax, layer norm, and
//! cross-entropy are fused into two sweeps per row (one read-only
//! statistics sweep, one write sweep). Their `exp`s, and GELU's `tanh`s,
//! run a slice at a time through `vmath`, with libm's bits.

use crate::vmath;

/// A node id on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorId(usize);

/// Row-major matrix storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix from raw parts.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix { rows, cols, data }
    }

    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Element access.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }
}

/// Which kernel family the graph ops (and the decode engine) dispatch to.
///
/// `Blocked` (the default) is the production f32 path: register-tiled
/// matmuls shaped for the autovectorizer. `Reference` retains the
/// pre-optimization naive loops (and the selector-matrix row-slice
/// construction) as the oracle: benchmarks measure the speedup against it
/// and property tests assert exact agreement. Both accumulate in the same
/// per-element order, so **Blocked ≡ Reference bit-for-bit on finite
/// inputs**, in training graphs and in a
/// [`DecodeSession`](crate::DecodeSession) alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Register-tiled f32 kernels.
    #[default]
    Blocked,
    /// The retained naive triple-loop kernels (the oracle).
    Reference,
}

impl KernelMode {
    /// The CLI/JSON name of the family (`reference|blocked`).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelMode::Blocked => "blocked",
            KernelMode::Reference => "reference",
        }
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for KernelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<KernelMode, String> {
        match s {
            "blocked" => Ok(KernelMode::Blocked),
            "reference" => Ok(KernelMode::Reference),
            other => Err(format!("unknown kernel mode `{other}` (expected reference|blocked)")),
        }
    }
}

/// The matmul kernel family.
///
/// Shape conventions (all row-major):
///
/// * [`matmul_into`]: `out[m,n] = a[m,k] · b[k,n]`
/// * [`matmul_nt_into`]: `out[m,n] = a[m,k] · b[n,k]ᵀ`
/// * [`matmul_tn_into`]: `out[m,n] = a[r,m]ᵀ · c[r,n]`
///
/// Each `*_into` dispatches on an explicit [`KernelMode`]; the
/// `*_blocked` and `*_reference` variants are public so property tests
/// can compare them directly. Both accumulate each output element in
/// ascending shared-dimension order and agree bit-for-bit on finite
/// inputs.
pub mod kernels {
    use super::{KernelMode, Matrix};

    /// Register-tile width of the blocked matmuls: 32 f32 lanes, i.e.
    /// eight SSE (or four AVX) vectors of accumulators that live entirely
    /// in registers across the shared-dim loop.
    const RT: usize = 32;

    /// `out = a · b`, dispatching on the kernel family.
    pub fn matmul_into(mode: KernelMode, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        match mode {
            KernelMode::Blocked => matmul_blocked(a, b, out),
            KernelMode::Reference => matmul_reference(a, b, out),
        }
    }

    /// `out = a · bᵀ`, dispatching on the kernel family.
    pub fn matmul_nt_into(mode: KernelMode, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        match mode {
            KernelMode::Blocked => matmul_nt_blocked(a, b, out),
            KernelMode::Reference => matmul_nt_reference(a, b, out),
        }
    }

    /// `out = aᵀ · c`, dispatching on the kernel family.
    pub fn matmul_tn_into(mode: KernelMode, a: &Matrix, c: &Matrix, out: &mut Matrix) {
        match mode {
            KernelMode::Blocked => matmul_tn_blocked(a, c, out),
            KernelMode::Reference => matmul_tn_reference(a, c, out),
        }
    }

    /// Register-tiled i-k-j matmul, **bit-identical** to
    /// [`matmul_reference`].
    ///
    /// For each output row a 32-wide block of output elements is
    /// accumulated in a `[f32; RT]` that the compiler keeps in vector
    /// registers across the *entire* k loop, so `out` is stored exactly
    /// once per element instead of once per k step. Per-element
    /// accumulation is one chained sum in ascending-k order — the same f32
    /// operation sequence as the reference kernel — while the 32
    /// independent element chains hide FP-add latency. The fixed-size
    /// `[f32; RT]` rows are what the autovectorizer turns into packed
    /// multiply-adds; a dynamic-width epilogue covers `n % RT` columns.
    pub fn matmul_blocked(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(a.cols, b.rows);
        debug_assert_eq!((out.rows, out.cols), (a.rows, b.cols));
        let (m, k, n) = (a.rows, a.cols, b.cols);
        // Narrow-output path (n ≤ RT/2, e.g. the per-head [T,T]·[T,dₕ]
        // attention backward): a single n-wide accumulator row leaves most
        // lanes idle, so tile 4 *output rows* instead — 4·n lanes live,
        // four independent chains per column, still ascending-k per
        // element.
        if n <= RT / 2 {
            const NB: usize = RT / 2;
            let mut i = 0;
            while i + 4 <= m {
                let a0 = &a.data[i * k..(i + 1) * k];
                let a1 = &a.data[(i + 1) * k..(i + 2) * k];
                let a2 = &a.data[(i + 2) * k..(i + 3) * k];
                let a3 = &a.data[(i + 3) * k..(i + 4) * k];
                let mut t0 = [0.0f32; NB];
                let mut t1 = [0.0f32; NB];
                let mut t2 = [0.0f32; NB];
                let mut t3 = [0.0f32; NB];
                for kk in 0..k {
                    let brow = &b.data[kk * n..(kk + 1) * n];
                    for (t, &x) in t0[..n].iter_mut().zip(brow) {
                        *t += a0[kk] * x;
                    }
                    for (t, &x) in t1[..n].iter_mut().zip(brow) {
                        *t += a1[kk] * x;
                    }
                    for (t, &x) in t2[..n].iter_mut().zip(brow) {
                        *t += a2[kk] * x;
                    }
                    for (t, &x) in t3[..n].iter_mut().zip(brow) {
                        *t += a3[kk] * x;
                    }
                }
                out.data[i * n..(i + 1) * n].copy_from_slice(&t0[..n]);
                out.data[(i + 1) * n..(i + 2) * n].copy_from_slice(&t1[..n]);
                out.data[(i + 2) * n..(i + 3) * n].copy_from_slice(&t2[..n]);
                out.data[(i + 3) * n..(i + 4) * n].copy_from_slice(&t3[..n]);
                i += 4;
            }
            while i < m {
                let arow = &a.data[i * k..(i + 1) * k];
                let mut acc = [0.0f32; NB];
                for (kk, &av) in arow.iter().enumerate() {
                    for (t, &x) in acc[..n].iter_mut().zip(&b.data[kk * n..(kk + 1) * n]) {
                        *t += av * x;
                    }
                }
                out.data[i * n..(i + 1) * n].copy_from_slice(&acc[..n]);
                i += 1;
            }
            return;
        }
        for j0 in (0..n).step_by(RT) {
            if j0 + RT <= n {
                for i in 0..m {
                    let arow = &a.data[i * k..(i + 1) * k];
                    let mut acc = [0.0f32; RT];
                    for (kk, &av) in arow.iter().enumerate() {
                        let brow: &[f32; RT] =
                            b.data[kk * n + j0..kk * n + j0 + RT].try_into().unwrap();
                        for (t, &x) in acc.iter_mut().zip(brow) {
                            *t += av * x;
                        }
                    }
                    out.data[i * n + j0..i * n + j0 + RT].copy_from_slice(&acc);
                }
            } else {
                let w = n - j0;
                for i in 0..m {
                    let arow = &a.data[i * k..(i + 1) * k];
                    let mut acc = [0.0f32; RT];
                    for (kk, &av) in arow.iter().enumerate() {
                        let brow = &b.data[kk * n + j0..kk * n + j0 + w];
                        for (t, &x) in acc[..w].iter_mut().zip(brow) {
                            *t += av * x;
                        }
                    }
                    out.data[i * n + j0..i * n + j0 + w].copy_from_slice(&acc[..w]);
                }
            }
        }
    }

    /// The retained naive matmul (i-k-j with a zero-skip, exactly the
    /// pre-optimization forward kernel).
    pub fn matmul_reference(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(a.cols, b.rows);
        out.data.fill(0.0);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let av = a.data[i * a.cols + k];
                if av == 0.0 {
                    continue;
                }
                let brow = &b.data[k * b.cols..(k + 1) * b.cols];
                let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, &x) in orow.iter_mut().zip(brow) {
                    *o += av * x;
                }
            }
        }
    }

    /// `mᵀ`, materialised. O(rows · cols) — small next to any matmul that
    /// consumes it — and it moves values without touching their bits.
    pub(crate) fn transpose(m: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(m.cols, m.rows);
        for (r, row) in m.data.chunks_exact(m.cols.max(1)).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                t.data[c * m.rows + r] = x;
            }
        }
        t
    }

    /// Blocked `a · bᵀ`: one transpose of `b`, then the register-tiled
    /// [`matmul_blocked`]. Each output element is the same ascending-k
    /// chained sum [`matmul_nt_reference`] computes, but the k loop now
    /// runs over 32-wide vector accumulators instead of scalar dot chains
    /// the compiler cannot vectorize.
    pub fn matmul_nt_blocked(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(a.cols, b.cols);
        debug_assert_eq!((out.rows, out.cols), (a.rows, b.rows));
        matmul_blocked(a, &transpose(b), out);
    }

    /// The retained naive `a · bᵀ` (i-j-k dot products, the pre-optimization
    /// kernel).
    pub fn matmul_nt_reference(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(a.cols, b.cols);
        let (m, k, n) = (a.rows, a.cols, b.rows);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.data[i * k + kk] * b.data[j * k + kk];
                }
                out.data[i * n + j] = acc;
            }
        }
    }

    /// Register-tiled `aᵀ · c`, **bit-identical** to
    /// [`matmul_tn_reference`].
    ///
    /// Tiled like [`matmul_blocked`]: each output row `j` of `aᵀc`
    /// accumulates a 32-wide column block in a `[f32; RT]` held in vector
    /// registers across the whole r loop, with the scalar `a[r][j]`
    /// broadcast against a contiguous strip of `c`'s row r. Per-element
    /// accumulation order stays ascending-r — the same chained f32 sum the
    /// reference kernel produces — and the 32-column strip of `c` walked by
    /// the r loop fits L1, so it is reused across all `m` output rows.
    pub fn matmul_tn_blocked(a: &Matrix, c: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(a.rows, c.rows);
        debug_assert_eq!((out.rows, out.cols), (a.cols, c.cols));
        let (r_rows, m, n) = (a.rows, a.cols, c.cols);
        // Transpose `a` once so the hot r loop reads a[·][j] contiguously
        // instead of striding by m per step. O(r·m) against the
        // O(r·m·n) multiply, and the accumulation order is untouched.
        let at = transpose(a).data;
        // Narrow-output path, mirroring `matmul_blocked`: tile 4 output rows
        // so 4·n accumulator lanes stay live; ascending-r per element.
        if n <= RT / 2 {
            const NB: usize = RT / 2;
            let mut j = 0;
            while j + 4 <= m {
                let a0 = &at[j * r_rows..(j + 1) * r_rows];
                let a1 = &at[(j + 1) * r_rows..(j + 2) * r_rows];
                let a2 = &at[(j + 2) * r_rows..(j + 3) * r_rows];
                let a3 = &at[(j + 3) * r_rows..(j + 4) * r_rows];
                let mut t0 = [0.0f32; NB];
                let mut t1 = [0.0f32; NB];
                let mut t2 = [0.0f32; NB];
                let mut t3 = [0.0f32; NB];
                for r in 0..r_rows {
                    let crow = &c.data[r * n..(r + 1) * n];
                    for (t, &x) in t0[..n].iter_mut().zip(crow) {
                        *t += a0[r] * x;
                    }
                    for (t, &x) in t1[..n].iter_mut().zip(crow) {
                        *t += a1[r] * x;
                    }
                    for (t, &x) in t2[..n].iter_mut().zip(crow) {
                        *t += a2[r] * x;
                    }
                    for (t, &x) in t3[..n].iter_mut().zip(crow) {
                        *t += a3[r] * x;
                    }
                }
                out.data[j * n..(j + 1) * n].copy_from_slice(&t0[..n]);
                out.data[(j + 1) * n..(j + 2) * n].copy_from_slice(&t1[..n]);
                out.data[(j + 2) * n..(j + 3) * n].copy_from_slice(&t2[..n]);
                out.data[(j + 3) * n..(j + 4) * n].copy_from_slice(&t3[..n]);
                j += 4;
            }
            while j < m {
                let arow = &at[j * r_rows..(j + 1) * r_rows];
                let mut acc = [0.0f32; NB];
                for (r, &av) in arow.iter().enumerate() {
                    for (t, &x) in acc[..n].iter_mut().zip(&c.data[r * n..(r + 1) * n]) {
                        *t += av * x;
                    }
                }
                out.data[j * n..(j + 1) * n].copy_from_slice(&acc[..n]);
                j += 1;
            }
            return;
        }
        for col0 in (0..n).step_by(RT) {
            if col0 + RT <= n {
                for j in 0..m {
                    let arow = &at[j * r_rows..(j + 1) * r_rows];
                    let mut acc = [0.0f32; RT];
                    for (r, &av) in arow.iter().enumerate() {
                        let crow: &[f32; RT] =
                            c.data[r * n + col0..r * n + col0 + RT].try_into().unwrap();
                        for (t, &x) in acc.iter_mut().zip(crow) {
                            *t += av * x;
                        }
                    }
                    out.data[j * n + col0..j * n + col0 + RT].copy_from_slice(&acc);
                }
            } else {
                let w = n - col0;
                for j in 0..m {
                    let arow = &at[j * r_rows..(j + 1) * r_rows];
                    let mut acc = [0.0f32; RT];
                    for (r, &av) in arow.iter().enumerate() {
                        let crow = &c.data[r * n + col0..r * n + col0 + w];
                        for (t, &x) in acc[..w].iter_mut().zip(crow) {
                            *t += av * x;
                        }
                    }
                    out.data[j * n + col0..j * n + col0 + w].copy_from_slice(&acc[..w]);
                }
            }
        }
    }

    /// Where the nonzero entries of a square left operand sit, for
    /// [`causal_matmul`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Triangle {
        /// `a[i, j] = 0` for `j > i` (attention probabilities, score grads).
        Lower,
        /// `a[i, j] = 0` for `j < i` (their transposes).
        Upper,
    }

    /// `out[i, j] = scale · Σ_c a[i, c] · b[j, c]` on the lower triangle
    /// `j ≤ i` only: causal attention scores (`scale` = 1/√hₛ) and their
    /// probability gradients (`scale` = 1). Score tiles above the diagonal
    /// are never computed and entries above it are left untouched; the
    /// scale is applied as each score is written.
    ///
    /// `b` is transposed once into rows padded to whole `RT`-wide tiles, so
    /// each tile of a row accumulates in a fixed `[f32; RT]` held in vector
    /// registers, ascending-c per element like [`matmul_nt_reference`].
    pub(crate) fn causal_nt(a: &Matrix, b: &Matrix, scale: f32, out: &mut Matrix) {
        debug_assert_eq!(a.cols, b.cols);
        debug_assert_eq!((out.rows, out.cols), (a.rows, b.rows));
        debug_assert_eq!(a.rows, b.rows);
        let (t, k) = (a.rows, a.cols);
        let tp = t.div_ceil(RT) * RT;
        let mut bt = vec![0.0f32; k * tp];
        for (j, brow) in b.data.chunks_exact(k.max(1)).enumerate() {
            for (c, &x) in brow.iter().enumerate() {
                bt[c * tp + j] = x;
            }
        }
        for i in 0..t {
            let arow = &a.data[i * k..(i + 1) * k];
            for j0 in (0..=i).step_by(RT) {
                let mut acc = [0.0f32; RT];
                for (c, &av) in arow.iter().enumerate() {
                    let brow: &[f32; RT] = bt[c * tp + j0..c * tp + j0 + RT].try_into().unwrap();
                    for (s, &x) in acc.iter_mut().zip(brow) {
                        *s += av * x;
                    }
                }
                let w = (i + 1 - j0).min(RT);
                for (o, &s) in out.data[i * t + j0..i * t + j0 + w].iter_mut().zip(&acc) {
                    *o = s * scale;
                }
            }
        }
    }

    /// `out = a · b` for a square `a` that is zero outside `tri`: each
    /// output row's shared-dim loop covers only its nonzero span
    /// (`0..=i` for [`Triangle::Lower`], `i..` for [`Triangle::Upper`]).
    ///
    /// Tiled like [`matmul_blocked`]'s narrow path: four output rows at a
    /// time over column strips of at most `RT/2`, each row's span widened
    /// to the tile's. The extra terms are masked entries of `a`, exactly
    /// ±0 products; an accumulator that starts at +0 is never −0, so
    /// adding ±0 to it changes nothing — every element equals the
    /// ascending-k sum of [`matmul_reference`] and
    /// [`matmul_tn_reference`] over the full square.
    pub(crate) fn causal_matmul(a: &Matrix, b: &Matrix, tri: Triangle, out: &mut Matrix) {
        debug_assert_eq!((a.rows, a.cols), (b.rows, b.rows));
        debug_assert_eq!((out.rows, out.cols), (a.rows, b.cols));
        const NB: usize = RT / 2;
        let (t, n) = (a.rows, b.cols);
        let span = |i: usize, rows: usize| match tri {
            Triangle::Lower => 0..i + rows,
            Triangle::Upper => i..t,
        };
        for c0 in (0..n).step_by(NB) {
            let w = (n - c0).min(NB);
            let mut i = 0;
            while i + 4 <= t {
                let a0 = &a.data[i * t..(i + 1) * t];
                let a1 = &a.data[(i + 1) * t..(i + 2) * t];
                let a2 = &a.data[(i + 2) * t..(i + 3) * t];
                let a3 = &a.data[(i + 3) * t..(i + 4) * t];
                let mut t0 = [0.0f32; NB];
                let mut t1 = [0.0f32; NB];
                let mut t2 = [0.0f32; NB];
                let mut t3 = [0.0f32; NB];
                for kk in span(i, 4) {
                    let brow = &b.data[kk * n + c0..kk * n + c0 + w];
                    for (s, &x) in t0[..w].iter_mut().zip(brow) {
                        *s += a0[kk] * x;
                    }
                    for (s, &x) in t1[..w].iter_mut().zip(brow) {
                        *s += a1[kk] * x;
                    }
                    for (s, &x) in t2[..w].iter_mut().zip(brow) {
                        *s += a2[kk] * x;
                    }
                    for (s, &x) in t3[..w].iter_mut().zip(brow) {
                        *s += a3[kk] * x;
                    }
                }
                for (r, acc) in [t0, t1, t2, t3].iter().enumerate() {
                    let o = (i + r) * n + c0;
                    out.data[o..o + w].copy_from_slice(&acc[..w]);
                }
                i += 4;
            }
            while i < t {
                let arow = &a.data[i * t..(i + 1) * t];
                let mut acc = [0.0f32; NB];
                for kk in span(i, 1) {
                    let brow = &b.data[kk * n + c0..kk * n + c0 + w];
                    for (s, &x) in acc[..w].iter_mut().zip(brow) {
                        *s += arow[kk] * x;
                    }
                }
                out.data[i * n + c0..i * n + c0 + w].copy_from_slice(&acc[..w]);
                i += 1;
            }
        }
    }

    /// The retained naive `aᵀ · c` (j-c-r dot products over strided
    /// columns, the pre-optimization backward kernel).
    pub fn matmul_tn_reference(a: &Matrix, c: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(a.rows, c.rows);
        let (r_rows, m, n) = (a.rows, a.cols, c.cols);
        for j in 0..m {
            for col in 0..n {
                let mut acc = 0.0f32;
                for r in 0..r_rows {
                    acc += a.data[r * m + j] * c.data[r * n + col];
                }
                out.data[j * n + col] = acc;
            }
        }
    }
}

enum Op {
    Leaf,
    /// (a, b): C = A · B
    MatMul(TensorId, TensorId),
    Add(TensorId, TensorId),
    Scale(TensorId, f32),
    /// GELU; caches the forward `tanh` of every element.
    Gelu(TensorId, Vec<f32>),
    /// Row-wise layer norm; caches (mean, rstd) per row.
    LayerNorm(TensorId, Vec<(f32, f32)>),
    /// Causal multi-head attention; caches each head's `[T, T]`
    /// probabilities (zero above the diagonal).
    CausalAttention {
        q: TensorId,
        k: TensorId,
        v: TensorId,
        scale: f32,
        probs: Vec<Matrix>,
    },
    /// Embedding gather: rows of `table` selected by `ids`.
    Gather(TensorId, Vec<usize>),
    /// First `rows` rows of the input.
    SliceRows(TensorId, usize),
    /// Weighted token cross-entropy; caches softmax probs.
    CrossEntropy {
        logits: TensorId,
        targets: Vec<usize>,
        weights: Vec<f32>,
        probs: Box<Matrix>,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    needs_grad: bool,
}

/// A single-use computation graph.
pub struct Graph {
    nodes: Vec<Node>,
    kernels: KernelMode,
}

impl Default for Graph {
    fn default() -> Graph {
        Graph::new()
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.len())
            .field("kernels", &self.kernels)
            .finish()
    }
}

/// Online (single-pass) max and exp-sum of a row: the streaming softmax
/// normalizer. Returns `(max, denom)` with `denom = Σ exp(x - max)`.
///
/// Each rise of the running max rescales the sum with one scalar libm
/// `exp`: `denom = denom·exp(old − new) + 1`. Between two rises every
/// term is `exp(x − max)` for one max, so each such run goes through
/// [`vmath::exp_inplace`] a chunk at a time and adds into `denom` in index
/// order: the recurrence's operations, bit for bit, with the run's
/// exponentials batched.
pub(crate) fn online_max_expsum(row: &[f32]) -> (f32, f32) {
    const CHUNK: usize = 64;
    let mut terms = [0.0f32; CHUNK];
    let mut max = f32::NEG_INFINITY;
    let mut denom = 0.0f32;
    let mut i = 0;
    while i < row.len() {
        let chunk = &row[i..row.len().min(i + CHUNK)];
        let run = chunk.iter().position(|&x| x > max).unwrap_or(chunk.len());
        if run == 0 {
            denom = denom * (max - chunk[0]).exp() + 1.0;
            max = chunk[0];
            i += 1;
            continue;
        }
        let terms = &mut terms[..run];
        for (t, &x) in terms.iter_mut().zip(chunk) {
            *t = x - max;
        }
        vmath::exp_inplace(terms);
        for &t in terms.iter() {
            denom += t;
        }
        i += run;
    }
    (max, denom)
}

/// Fused in-place row softmax: one read-only [`online_max_expsum`] sweep,
/// one write sweep fusing the exponential with the reciprocal scale.
///
/// This is the **single** softmax implementation shared by the causal
/// attention op ([`Graph::causal_attention`]) and the KV-cached decode
/// path (`pyranet_model::decode`), so the two can never drift apart —
/// they are bit-identical by construction, and the shared unit test pins
/// the numerics.
pub fn softmax_row_inplace(row: &mut [f32]) {
    let (max, denom) = online_max_expsum(row);
    let inv = 1.0 / denom;
    for x in row.iter_mut() {
        *x -= max;
    }
    vmath::exp_inplace(row);
    for x in row.iter_mut() {
        *x *= inv;
    }
}

impl Graph {
    /// Creates an empty graph using the default kernel family.
    pub fn new() -> Graph {
        Graph::with_kernels(KernelMode::default())
    }

    /// Creates an empty graph whose ops dispatch to `mode`'s kernels.
    pub fn with_kernels(mode: KernelMode) -> Graph {
        Graph { nodes: Vec::new(), kernels: mode }
    }

    /// The kernel family this graph dispatches to.
    pub fn kernels(&self) -> KernelMode {
        self.kernels
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> TensorId {
        self.nodes.push(Node { value, grad: None, op, needs_grad });
        TensorId(self.nodes.len() - 1)
    }

    /// Adds a trainable leaf (gradient will be accumulated).
    pub fn param(&mut self, value: Matrix) -> TensorId {
        self.push(value, Op::Leaf, true)
    }

    /// Adds a constant leaf (no gradient).
    pub fn constant(&mut self, value: Matrix) -> TensorId {
        self.push(value, Op::Leaf, false)
    }

    /// The forward value of a node.
    pub fn value(&self, id: TensorId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// The accumulated gradient of a node (zero matrix if it never received
    /// gradient).
    pub fn grad(&self, id: TensorId) -> Matrix {
        let n = &self.nodes[id.0];
        n.grad.clone().unwrap_or_else(|| Matrix::zeros(n.value.rows, n.value.cols))
    }

    fn shape(&self, id: TensorId) -> (usize, usize) {
        let v = &self.nodes[id.0].value;
        (v.rows, v.cols)
    }

    fn needs(&self, id: TensorId) -> bool {
        self.nodes[id.0].needs_grad
    }

    // ---- ops ----

    /// `A · B`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ac, br, "matmul inner dims {ac} vs {br}");
        let mut out = Matrix::zeros(ar, bc);
        {
            let av = &self.nodes[a.0].value;
            let bv = &self.nodes[b.0].value;
            kernels::matmul_into(self.kernels, av, bv, &mut out);
        }
        let needs = self.needs(a) || self.needs(b);
        self.push(out, Op::MatMul(a, b), needs)
    }

    /// Elementwise sum (same shape).
    pub fn add(&mut self, a: TensorId, b: TensorId) -> TensorId {
        assert_eq!(self.shape(a), self.shape(b), "add shape mismatch");
        let mut out = self.nodes[a.0].value.clone();
        for (o, x) in out.data.iter_mut().zip(&self.nodes[b.0].value.data) {
            *o += x;
        }
        let needs = self.needs(a) || self.needs(b);
        self.push(out, Op::Add(a, b), needs)
    }

    /// Scalar multiply.
    pub fn scale(&mut self, a: TensorId, k: f32) -> TensorId {
        let mut out = self.nodes[a.0].value.clone();
        for o in out.data.iter_mut() {
            *o *= k;
        }
        let needs = self.needs(a);
        self.push(out, Op::Scale(a, k), needs)
    }

    /// GELU activation (tanh approximation). The `tanh` of each element is
    /// kept for the backward pass, which therefore never recomputes it.
    pub fn gelu(&mut self, a: TensorId) -> TensorId {
        let mut out = self.nodes[a.0].value.clone();
        let mut tanh = Vec::new();
        gelu_inplace(&mut out.data, &mut tanh);
        let needs = self.needs(a);
        self.push(out, Op::Gelu(a, tanh), needs)
    }

    /// Row-wise layer normalization (no affine). One statistics sweep
    /// (sum + sum-of-squares fused) and one write sweep per row.
    pub fn layernorm(&mut self, a: TensorId) -> TensorId {
        let v = &self.nodes[a.0].value;
        let mut out = Matrix::zeros(v.rows, v.cols);
        let mut stats = Vec::with_capacity(v.rows);
        let n = v.cols as f32;
        for r in 0..v.rows {
            let row = &v.data[r * v.cols..(r + 1) * v.cols];
            let (mut sum, mut sumsq) = (0.0f32, 0.0f32);
            for &x in row {
                sum += x;
                sumsq += x * x;
            }
            let mean = sum / n;
            let var = (sumsq / n - mean * mean).max(0.0);
            let rstd = 1.0 / (var + 1e-5).sqrt();
            for (o, &x) in out.data[r * v.cols..(r + 1) * v.cols].iter_mut().zip(row) {
                *o = (x - mean) * rstd;
            }
            stats.push((mean, rstd));
        }
        let needs = self.needs(a);
        self.push(out, Op::LayerNorm(a, stats), needs)
    }

    /// Causal multi-head self-attention. `q`, `k` and `v` are `[T, d]`,
    /// split into `heads` column blocks of `d / heads`; each head computes
    /// `softmax(scale · q kᵀ)` with column j > row i masked, times `v`,
    /// and the heads sit side by side in the `[T, d]` output.
    ///
    /// `Blocked` touches only the lower triangle (`kernels::causal_nt`,
    /// `kernels::causal_matmul`): score tiles above the diagonal are
    /// never computed, the scale is applied as each score is written, and
    /// P·V and every backward sweep stop at the diagonal. `Reference` runs
    /// the retained naive kernels over the full square, so it stays the
    /// oracle. The terms `Blocked` skips are masked products, exactly ±0.
    /// Every matmul sum starts at +0, so it is never −0 and adding ±0 to
    /// it changes nothing; the softmax-backward row dot only enters as
    /// dP − dot with dP never −0, so the sign of a zero dot cannot matter
    /// either. Values and gradients agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ or `heads` does not divide `d`.
    pub fn causal_attention(
        &mut self,
        q: TensorId,
        k: TensorId,
        v: TensorId,
        heads: usize,
        scale: f32,
    ) -> TensorId {
        let (t, d) = self.shape(q);
        assert!(self.shape(k) == (t, d) && self.shape(v) == (t, d), "attention shape mismatch");
        assert!(heads > 0 && d % heads == 0, "{d} columns do not split into {heads} heads");
        let (mode, hs) = (self.kernels, d / heads);
        let mut out = Matrix::zeros(t, d);
        let mut probs = Vec::with_capacity(heads);
        for h in 0..heads {
            let [qh, kh, vh] = [q, k, v].map(|id| head_cols(&self.nodes[id.0].value, h, hs));
            let mut p = Matrix::zeros(t, t);
            lower_nt(mode, &qh, &kh, scale, &mut p);
            for (i, row) in p.data.chunks_exact_mut(t).enumerate() {
                let (live, masked) = row.split_at_mut(i + 1);
                softmax_row_inplace(live);
                if mode == KernelMode::Reference {
                    masked.fill(0.0);
                }
            }
            set_head_cols(&mut out, h, &lower_mm(mode, &p, &vh));
            probs.push(p);
        }
        let needs = self.needs(q) || self.needs(k) || self.needs(v);
        self.push(out, Op::CausalAttention { q, k, v, scale, probs }, needs)
    }

    /// Gathers rows `ids` of `table` (embedding lookup).
    pub fn gather(&mut self, table: TensorId, ids: &[usize]) -> TensorId {
        let t = &self.nodes[table.0].value;
        let mut out = Matrix::zeros(ids.len(), t.cols);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < t.rows, "gather index {id} out of {}", t.rows);
            out.data[r * t.cols..(r + 1) * t.cols]
                .copy_from_slice(&t.data[id * t.cols..(id + 1) * t.cols]);
        }
        let needs = self.needs(table);
        self.push(out, Op::Gather(table, ids.to_vec()), needs)
    }

    /// First `rows` rows of `a` (used to drop the final next-token row
    /// before the loss).
    ///
    /// In [`KernelMode::Reference`] this builds the historical selector
    /// matrix `S[rows, n]` with `S[i,i] = 1` and multiplies — the
    /// pre-optimization construction, whose backward pass is an
    /// `O(n · rows · cols)` dense matmul. The blocked mode records a
    /// dedicated O(rows · cols) copy/scatter op instead; both produce
    /// bit-identical values and gradients.
    ///
    /// # Panics
    ///
    /// Panics when `rows` exceeds the row count of `a`.
    pub fn slice_rows(&mut self, a: TensorId, rows: usize) -> TensorId {
        let v = &self.nodes[a.0].value;
        assert!(rows <= v.rows, "slice beyond rows");
        if rows == v.rows {
            return a;
        }
        if self.kernels == KernelMode::Reference {
            let n = v.rows;
            let mut sel = Matrix::zeros(rows, n);
            for i in 0..rows {
                sel.data[i * n + i] = 1.0;
            }
            let s = self.constant(sel);
            return self.matmul(s, a);
        }
        let cols = v.cols;
        let mut out = Matrix::zeros(rows, cols);
        out.data.copy_from_slice(&v.data[..rows * cols]);
        let needs = self.needs(a);
        self.push(out, Op::SliceRows(a, rows), needs)
    }

    /// Per-row weighted cross-entropy over logits `[n, V]` against `targets`
    /// with per-row `weights`; returns a `[1,1]` scalar:
    /// `sum_i w_i * (-log softmax(logits_i)[t_i]) / sum_i w_i`.
    ///
    /// # Panics
    ///
    /// Panics when lengths disagree or all weights are zero.
    pub fn cross_entropy(
        &mut self,
        logits: TensorId,
        targets: &[usize],
        weights: &[f32],
    ) -> TensorId {
        let v = &self.nodes[logits.0].value;
        assert_eq!(v.rows, targets.len());
        assert_eq!(v.rows, weights.len());
        let wsum: f32 = weights.iter().sum();
        assert!(wsum > 0.0, "all-zero loss weights");
        let mut probs = Matrix::zeros(v.rows, v.cols);
        let mut loss = 0.0f32;
        for r in 0..v.rows {
            let row = &v.data[r * v.cols..(r + 1) * v.cols];
            let prow = &mut probs.data[r * v.cols..(r + 1) * v.cols];
            prow.copy_from_slice(row);
            softmax_row_inplace(prow);
            let p = prow[targets[r]].max(1e-12);
            loss -= weights[r] * p.ln();
        }
        loss /= wsum;
        let needs = self.needs(logits);
        self.push(
            Matrix::new(1, 1, vec![loss]),
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                weights: weights.to_vec(),
                probs: Box::new(probs),
            },
            needs,
        )
    }

    /// Runs the backward pass from `root` (must be `[1,1]`).
    ///
    /// # Panics
    ///
    /// Panics when `root` is not scalar.
    pub fn backward(&mut self, root: TensorId) {
        {
            let v = &self.nodes[root.0].value;
            assert_eq!((v.rows, v.cols), (1, 1), "backward root must be scalar");
        }
        self.nodes[root.0].grad = Some(Matrix::new(1, 1, vec![1.0]));
        for i in (0..=root.0).rev() {
            if self.nodes[i].grad.is_none() || !self.nodes[i].needs_grad {
                continue;
            }
            let grad = self.nodes[i].grad.take().expect("checked above");
            self.backprop_node(i, &grad);
            self.nodes[i].grad = Some(grad);
        }
    }

    fn accumulate(&mut self, id: TensorId, delta: Matrix) {
        if !self.nodes[id.0].needs_grad {
            return;
        }
        match &mut self.nodes[id.0].grad {
            Some(g) => {
                for (a, b) in g.data.iter_mut().zip(&delta.data) {
                    *a += b;
                }
            }
            None => self.nodes[id.0].grad = Some(delta),
        }
    }

    /// Computes the input deltas of node `i` under `grad` and accumulates
    /// them. Deltas are produced with only shared borrows of the tape (no
    /// operand clones) and applied afterwards.
    fn backprop_node(&mut self, i: usize, grad: &Matrix) {
        let mode = self.kernels;
        let mut deltas: Vec<(TensorId, Matrix)> = Vec::with_capacity(2);
        match &self.nodes[i].op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let (a, b) = (*a, *b);
                let av = &self.nodes[a.0].value;
                let bv = &self.nodes[b.0].value;
                // dA = dC · Bᵀ
                if self.needs(a) {
                    let mut da = Matrix::zeros(av.rows, av.cols);
                    kernels::matmul_nt_into(mode, grad, bv, &mut da);
                    deltas.push((a, da));
                }
                // dB = Aᵀ · dC
                if self.needs(b) {
                    let mut db = Matrix::zeros(bv.rows, bv.cols);
                    kernels::matmul_tn_into(mode, av, grad, &mut db);
                    deltas.push((b, db));
                }
            }
            Op::Add(a, b) => {
                let (a, b) = (*a, *b);
                deltas.push((a, grad.clone()));
                deltas.push((b, grad.clone()));
            }
            Op::Scale(a, k) => {
                let (a, k) = (*a, *k);
                let mut da = grad.clone();
                for g in da.data.iter_mut() {
                    *g *= k;
                }
                deltas.push((a, da));
            }
            Op::Gelu(a, tanh) => {
                let a = *a;
                let av = &self.nodes[a.0].value;
                let mut da = grad.clone();
                for ((g, &x), &t) in da.data.iter_mut().zip(&av.data).zip(tanh) {
                    *g *= gelu_bwd(x, t);
                }
                deltas.push((a, da));
            }
            Op::LayerNorm(a, stats) => {
                let a = *a;
                let av = &self.nodes[a.0].value;
                let mut da = Matrix::zeros(av.rows, av.cols);
                let n = av.cols as f32;
                for (r, &(mean, rstd)) in stats.iter().enumerate() {
                    let xs = &av.data[r * av.cols..(r + 1) * av.cols];
                    let gs = &grad.data[r * av.cols..(r + 1) * av.cols];
                    let sum_g: f32 = gs.iter().sum();
                    let sum_gx: f32 = gs.iter().zip(xs).map(|(g, x)| g * (x - mean) * rstd).sum();
                    for c in 0..av.cols {
                        let xhat = (xs[c] - mean) * rstd;
                        da.data[r * av.cols + c] = rstd * (gs[c] - sum_g / n - xhat * sum_gx / n);
                    }
                }
                deltas.push((a, da));
            }
            Op::CausalAttention { q, k, v, scale, probs } => {
                let (q, k, v, scale) = (*q, *k, *v, *scale);
                let (qv, kv, vv) =
                    (&self.nodes[q.0].value, &self.nodes[k.0].value, &self.nodes[v.0].value);
                let (t, d) = (qv.rows, qv.cols);
                let hs = d / probs.len();
                let [mut dq, mut dk, mut dv] = [(); 3].map(|_| Matrix::zeros(t, d));
                for (h, p) in probs.iter().enumerate() {
                    let [qh, kh, vh, go] = [qv, kv, vv, grad].map(|m| head_cols(m, h, hs));
                    // O = P·V: dP = dO·Vᵀ, dV = Pᵀ·dO.
                    let mut ds = Matrix::zeros(t, t);
                    lower_nt(mode, &go, &vh, 1.0, &mut ds);
                    set_head_cols(&mut dv, h, &lower_tn(mode, p, &go));
                    // Softmax backward, then the score scale, in place.
                    for (i, (prow, grow)) in
                        p.data.chunks_exact(t).zip(ds.data.chunks_exact_mut(t)).enumerate()
                    {
                        let live = if mode == KernelMode::Reference { t } else { i + 1 };
                        let (prow, grow) = (&prow[..live], &mut grow[..live]);
                        let dot: f32 = prow.iter().zip(grow.iter()).map(|(s, g)| s * g).sum();
                        for (g, &s) in grow.iter_mut().zip(prow) {
                            *g = s * (*g - dot) * scale;
                        }
                    }
                    // S = Q·Kᵀ: dQ = dS·K, dK = dSᵀ·Q.
                    set_head_cols(&mut dq, h, &lower_mm(mode, &ds, &kh));
                    set_head_cols(&mut dk, h, &lower_tn(mode, &ds, &qh));
                }
                deltas.extend([(q, dq), (k, dk), (v, dv)]);
            }
            Op::Gather(table, ids) => {
                let table = *table;
                let (tr, tc) = self.shape(table);
                let mut dt = Matrix::zeros(tr, tc);
                for (r, id) in ids.iter().enumerate() {
                    for c in 0..tc {
                        dt.data[id * tc + c] += grad.data[r * tc + c];
                    }
                }
                deltas.push((table, dt));
            }
            Op::SliceRows(a, rows) => {
                let (a, rows) = (*a, *rows);
                let (ar, ac) = self.shape(a);
                let mut da = Matrix::zeros(ar, ac);
                da.data[..rows * ac].copy_from_slice(&grad.data);
                deltas.push((a, da));
            }
            Op::CrossEntropy { logits, targets, weights, probs } => {
                let logits = *logits;
                let wsum: f32 = weights.iter().sum();
                let g0 = grad.data[0];
                let mut dl = Matrix::zeros(probs.rows, probs.cols);
                for r in 0..probs.rows {
                    let w = g0 * weights[r] / wsum;
                    let prow = &probs.data[r * probs.cols..(r + 1) * probs.cols];
                    let drow = &mut dl.data[r * probs.cols..(r + 1) * probs.cols];
                    for (d, &p) in drow.iter_mut().zip(prow) {
                        *d = w * p;
                    }
                    drow[targets[r]] -= w;
                }
                deltas.push((logits, dl));
            }
        }
        for (id, delta) in deltas {
            self.accumulate(id, delta);
        }
    }
}

/// Columns `[h·hs, (h+1)·hs)` of `m` as a `[rows, hs]` matrix.
fn head_cols(m: &Matrix, h: usize, hs: usize) -> Matrix {
    let mut out = Matrix::zeros(m.rows, hs);
    for (dst, src) in out.data.chunks_exact_mut(hs).zip(m.data.chunks_exact(m.cols)) {
        dst.copy_from_slice(&src[h * hs..(h + 1) * hs]);
    }
    out
}

/// Writes `src` over columns `[h·src.cols, (h+1)·src.cols)` of `dst`.
fn set_head_cols(dst: &mut Matrix, h: usize, src: &Matrix) {
    let hs = src.cols;
    for (d, s) in dst.data.chunks_exact_mut(dst.cols).zip(src.data.chunks_exact(hs)) {
        d[h * hs..(h + 1) * hs].copy_from_slice(s);
    }
}

/// `scale · a bᵀ` for [`Graph::causal_attention`]: the lower triangle
/// only, or the full square under [`KernelMode::Reference`].
fn lower_nt(mode: KernelMode, a: &Matrix, b: &Matrix, scale: f32, out: &mut Matrix) {
    if mode == KernelMode::Reference {
        kernels::matmul_nt_reference(a, b, out);
        for x in out.data.iter_mut() {
            *x *= scale;
        }
    } else {
        kernels::causal_nt(a, b, scale, out);
    }
}

/// `a · b` for a square `a` that is zero above its diagonal.
fn lower_mm(mode: KernelMode, a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    if mode == KernelMode::Reference {
        kernels::matmul_reference(a, b, &mut out);
    } else {
        kernels::causal_matmul(a, b, kernels::Triangle::Lower, &mut out);
    }
    out
}

/// `aᵀ · c` for a square `a` that is zero above its diagonal.
fn lower_tn(mode: KernelMode, a: &Matrix, c: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols, c.cols);
    if mode == KernelMode::Reference {
        kernels::matmul_tn_reference(a, c, &mut out);
    } else {
        kernels::causal_matmul(&kernels::transpose(a), c, kernels::Triangle::Upper, &mut out);
    }
    out
}

/// `√(2/π)·(x + 0.044715·x³)`, the argument of GELU's one `tanh`.
fn gelu_arg(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    C * (x + 0.044715 * x * x * x)
}

fn gelu_from_tanh(x: f32, t: f32) -> f32 {
    0.5 * x * (1.0 + t)
}

/// GELU forward (tanh approximation) through libm's scalar `tanh`: the
/// legacy decode loop's, bit-identical to [`gelu_inplace`].
pub(crate) fn gelu_fwd(x: f32) -> f32 {
    gelu_from_tanh(x, gelu_arg(x).tanh())
}

/// GELU over `xs` in place, its `tanh`s batched through
/// [`vmath::tanh_inplace`] — shared by the graph op and the KV-cached
/// decode path. Leaves each element's `tanh` in `tanh` (cleared first),
/// which the graph keeps for the backward pass.
pub(crate) fn gelu_inplace(xs: &mut [f32], tanh: &mut Vec<f32>) {
    tanh.clear();
    tanh.extend(xs.iter().map(|&x| gelu_arg(x)));
    vmath::tanh_inplace(tanh);
    for (x, &t) in xs.iter_mut().zip(tanh.iter()) {
        *x = gelu_from_tanh(*x, t);
    }
}

/// GELU derivative at `x`, given `t = tanh(gelu_arg(x))` from the forward.
fn gelu_bwd(x: f32, t: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Numerically checks d(loss)/d(param[idx]) for a scalar-producing
    /// closure rebuilt per evaluation.
    fn finite_diff<F>(param: &Matrix, idx: usize, f: F) -> f32
    where
        F: Fn(&Matrix) -> f32,
    {
        let eps = 1e-2f32;
        let mut plus = param.clone();
        plus.data[idx] += eps;
        let mut minus = param.clone();
        minus.data[idx] -= eps;
        (f(&plus) - f(&minus)) / (2.0 * eps)
    }

    fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
        // deterministic pseudo-random values in [-0.5, 0.5]
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let data = (0..rows * cols)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 11) as f32 / (1u64 << 53) as f32) - 0.5
            })
            .collect();
        Matrix::new(rows, cols, data)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn shared_softmax_matches_graph_softmax_bitwise() {
        // `softmax_row_inplace` is the one softmax both the graph's causal
        // attention op and the decode fast path use; pin that the op
        // really routes through it (bit-identical rows). With `k` the
        // identity and scale 1 the scores are exactly `q`, so row i's
        // probabilities are the shared softmax of `q[i, ..=i]`, and every
        // masked entry stays exactly 0.
        let t = 9;
        let q = seeded(t, t, 42);
        let mut eye = Matrix::zeros(t, t);
        for i in 0..t {
            eye.data[i * t + i] = 1.0;
        }
        for mode in [KernelMode::Blocked, KernelMode::Reference] {
            let mut g = Graph::with_kernels(mode);
            let (iq, ik, iv) =
                (g.constant(q.clone()), g.constant(eye.clone()), g.constant(eye.clone()));
            let s = g.causal_attention(iq, ik, iv, 1, 1.0);
            let Op::CausalAttention { probs, .. } = &g.nodes[s.0].op else {
                panic!("causal_attention recorded another op");
            };
            for (r, graph_row) in probs[0].data.chunks_exact(t).enumerate() {
                let mut row = q.data[r * t..r * t + r + 1].to_vec();
                softmax_row_inplace(&mut row);
                let ours: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
                let theirs: Vec<u32> = graph_row[..=r].iter().map(|x| x.to_bits()).collect();
                assert_eq!(ours, theirs, "{mode}: row {r} diverged");
                assert!(graph_row[r + 1..].iter().all(|&p| p == 0.0), "{mode}: row {r} leaks");
            }
        }
    }

    #[test]
    fn shared_softmax_handles_extreme_rows() {
        // Every row sums to one with each entry a probability.
        let m = seeded(5, 9, 42);
        for (r, row) in m.data.chunks_exact(m.cols).enumerate() {
            let mut row = row.to_vec();
            softmax_row_inplace(&mut row);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        let mut row = vec![1000.0f32, 0.0, -1000.0];
        softmax_row_inplace(&mut row);
        assert!((row[0] - 1.0).abs() < 1e-6, "{row:?}");
        let mut single = vec![-3.5f32];
        softmax_row_inplace(&mut single);
        assert_eq!(single[0].to_bits(), 1.0f32.to_bits());
    }

    #[test]
    fn matmul_forward_correct() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let b = g.constant(Matrix::new(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    /// One scalar loss used for gradient checking: weighted CE over a tiny
    /// two-layer network exercising most ops.
    fn loss_through_net(w1: &Matrix, w2: &Matrix) -> f32 {
        let mut g = Graph::new();
        let x = g.constant(seeded(4, 3, 7));
        let p1 = g.param(w1.clone());
        let p2 = g.param(w2.clone());
        let h = g.matmul(x, p1);
        let h = g.gelu(h);
        let h = g.layernorm(h);
        let logits = g.matmul(h, p2);
        let loss = g.cross_entropy(logits, &[0, 2, 1, 3], &[1.0, 0.5, 0.8, 0.2]);
        g.value(loss).data[0]
    }

    #[test]
    fn gradients_match_finite_differences() {
        let w1 = seeded(3, 5, 11);
        let w2 = seeded(5, 4, 13);
        // analytic gradients
        let mut g = Graph::new();
        let x = g.constant(seeded(4, 3, 7));
        let p1 = g.param(w1.clone());
        let p2 = g.param(w2.clone());
        let h = g.matmul(x, p1);
        let h = g.gelu(h);
        let h = g.layernorm(h);
        let logits = g.matmul(h, p2);
        let loss = g.cross_entropy(logits, &[0, 2, 1, 3], &[1.0, 0.5, 0.8, 0.2]);
        g.backward(loss);
        let g1 = g.grad(p1);
        let g2 = g.grad(p2);
        for idx in [0usize, 3, 7, 14] {
            let fd = finite_diff(&w1, idx, |w| loss_through_net(w, &w2));
            assert!(
                (g1.data[idx] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "w1[{idx}]: analytic {} vs fd {fd}",
                g1.data[idx]
            );
        }
        for idx in [0usize, 5, 11, 19] {
            let fd = finite_diff(&w2, idx, |w| loss_through_net(&w1, w));
            assert!(
                (g2.data[idx] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "w2[{idx}]: analytic {} vs fd {fd}",
                g2.data[idx]
            );
        }
    }

    #[test]
    fn attention_path_gradcheck() {
        // causal_attention(x·Wq, x·Wk, x·Wv) over two heads, loss = CE,
        // under both kernel families.
        let ws = [seeded(4, 4, 21), seeded(4, 4, 23), seeded(4, 4, 25)];
        for mode in [KernelMode::Blocked, KernelMode::Reference] {
            let run = |ws: &[Matrix; 3]| -> (f32, Vec<Matrix>) {
                let mut g = Graph::with_kernels(mode);
                let x = g.constant(seeded(5, 4, 22));
                let ps = ws.clone().map(|w| g.param(w));
                let [q, k, v] = ps.map(|p| g.matmul(x, p));
                let ctx = g.causal_attention(q, k, v, 2, 0.6);
                let loss = g.cross_entropy(ctx, &[0, 1, 2, 3, 0], &[1.0; 5]);
                g.backward(loss);
                (g.value(loss).data[0], ps.iter().map(|&p| g.grad(p)).collect())
            };
            let (_, analytic) = run(&ws);
            for (which, grad) in analytic.iter().enumerate() {
                for idx in [0usize, 5, 10, 15] {
                    let fd = finite_diff(&ws[which], idx, |w| {
                        let mut moved = ws.clone();
                        moved[which] = w.clone();
                        run(&moved).0
                    });
                    assert!(
                        (grad.data[idx] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                        "{mode} w{which}[{idx}]: analytic {} vs fd {fd}",
                        grad.data[idx]
                    );
                }
            }
        }
    }

    #[test]
    fn gather_grad_scatters() {
        let table = seeded(5, 2, 31);
        let run = |t: &Matrix| -> (f32, Matrix) {
            let mut g = Graph::new();
            let pt = g.param(t.clone());
            let got = g.gather(pt, &[1, 3, 1]);
            let loss = g.cross_entropy(got, &[0, 1, 0], &[1.0, 1.0, 1.0]);
            g.backward(loss);
            (g.value(loss).data[0], g.grad(pt))
        };
        let (_, analytic) = run(&table);
        for idx in [2usize, 3, 6, 7] {
            let fd = finite_diff(&table, idx, |t| run(t).0);
            assert!((analytic.data[idx] - fd).abs() < 2e-2 * (1.0 + fd.abs()), "table[{idx}]");
        }
        // rows never gathered get zero grad
        assert_eq!(analytic.data[0], 0.0);
        assert_eq!(analytic.data[8], 0.0);
    }

    #[test]
    fn slice_rows_takes_prefix_and_scatters_grad() {
        let w = seeded(4, 3, 43);
        let run = |w: &Matrix| -> (f32, Matrix, Matrix) {
            let mut g = Graph::new();
            let pw = g.param(w.clone());
            let top = g.slice_rows(pw, 2);
            let loss = g.cross_entropy(top, &[0, 2], &[1.0, 1.0]);
            g.backward(loss);
            (g.value(loss).data[0], g.value(top).clone(), g.grad(pw))
        };
        let (_, top, analytic) = run(&w);
        assert_eq!(top.data, w.data[..6].to_vec(), "forward is the row prefix");
        for idx in [0usize, 2, 5] {
            let fd = finite_diff(&w, idx, |w| run(w).0);
            assert!((analytic.data[idx] - fd).abs() < 2e-2 * (1.0 + fd.abs()), "w[{idx}]");
        }
        // rows beyond the slice receive zero grad
        assert!(analytic.data[6..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn slice_rows_full_height_is_identity() {
        let mut g = Graph::new();
        let a = g.constant(seeded(3, 2, 44));
        let s = g.slice_rows(a, 3);
        assert_eq!(s, a);
    }

    #[test]
    fn weighted_ce_all_ones_equals_unweighted() {
        let logits = seeded(3, 4, 61);
        let mut g1 = Graph::new();
        let l1 = g1.constant(logits.clone());
        let c1 = g1.cross_entropy(l1, &[1, 2, 0], &[1.0, 1.0, 1.0]);
        let mut g2 = Graph::new();
        let l2 = g2.constant(logits);
        let c2 = g2.cross_entropy(l2, &[1, 2, 0], &[2.0, 2.0, 2.0]);
        // weights normalise out: scaling all weights equally changes nothing
        assert!((g1.value(c1).data[0] - g2.value(c2).data[0]).abs() < 1e-6);
    }

    #[test]
    fn weighted_ce_downweights_rows() {
        // Row 1 has a terrible prediction; downweighting it must reduce loss.
        let logits = Matrix::new(2, 2, vec![5.0, 0.0, 5.0, 0.0]);
        let mut g1 = Graph::new();
        let l1 = g1.constant(logits.clone());
        let full = g1.cross_entropy(l1, &[0, 1], &[1.0, 1.0]);
        let mut g2 = Graph::new();
        let l2 = g2.constant(logits);
        let down = g2.cross_entropy(l2, &[0, 1], &[1.0, 0.1]);
        assert!(g2.value(down).data[0] < g1.value(full).data[0]);
    }

    #[test]
    #[should_panic(expected = "all-zero loss weights")]
    fn zero_weights_panic() {
        let mut g = Graph::new();
        let l = g.constant(Matrix::zeros(1, 2));
        let _ = g.cross_entropy(l, &[0], &[0.0]);
    }

    #[test]
    fn layernorm_rows_are_standardised() {
        let mut g = Graph::new();
        let a = g.constant(seeded(3, 8, 71));
        let n = g.layernorm(a);
        let v = g.value(n);
        for r in 0..3 {
            let row: Vec<f32> = (0..8).map(|c| v.at(r, c)).collect();
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn constants_receive_no_grad() {
        let mut g = Graph::new();
        let c = g.constant(seeded(2, 2, 81));
        let p = g.param(seeded(2, 2, 82));
        let s = g.add(c, p);
        let loss = g.cross_entropy(s, &[0, 1], &[1.0, 1.0]);
        g.backward(loss);
        assert!(g.grad(c).data.iter().all(|&x| x == 0.0));
        assert!(g.grad(p).data.iter().any(|&x| x != 0.0));
    }

    #[test]
    #[should_panic(expected = "matrix shape mismatch")]
    fn bad_shape_panics() {
        let _ = Matrix::new(2, 2, vec![1.0; 3]);
    }

    // ---- blocked-vs-reference kernel equivalence ----

    /// Like [`seeded`] but with ~3/4 of the entries forced to exact zero,
    /// so the reference kernel's zero-skip path is exercised.
    fn seeded_zero_heavy(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = seeded(rows, cols, seed);
        let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        for v in m.data.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 3 != 0 {
                *v = 0.0;
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Forward matmul: blocked and reference kernels agree bit-for-bit
        /// (same per-element accumulation order).
        #[test]
        fn blocked_matmul_is_bit_identical_to_reference(
            m in 1usize..9, k in 1usize..70, n in 1usize..300,
            seed in 0u64..1_000,
        ) {
            let a = seeded(m, k, seed);
            let b = seeded(k, n, seed ^ 0xABCD);
            let mut fast = Matrix::zeros(m, n);
            let mut naive = Matrix::zeros(m, n);
            kernels::matmul_blocked(&a, &b, &mut fast);
            kernels::matmul_reference(&a, &b, &mut naive);
            prop_assert_eq!(
                fast.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                naive.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }

        /// `A · Bᵀ` (attention scores / dA of matmul): bit-identical.
        #[test]
        fn blocked_matmul_nt_is_bit_identical_to_reference(
            m in 1usize..9, k in 1usize..70, n in 1usize..40,
            seed in 0u64..1_000,
        ) {
            let a = seeded(m, k, seed);
            let b = seeded(n, k, seed ^ 0x1234);
            let mut fast = Matrix::zeros(m, n);
            let mut naive = Matrix::zeros(m, n);
            kernels::matmul_nt_blocked(&a, &b, &mut fast);
            kernels::matmul_nt_reference(&a, &b, &mut naive);
            prop_assert_eq!(
                fast.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                naive.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }

        /// `Aᵀ · C` (dB of both matmuls): bit-identical.
        #[test]
        fn blocked_matmul_tn_is_bit_identical_to_reference(
            r in 1usize..40, m in 1usize..9, n in 1usize..300,
            seed in 0u64..1_000,
        ) {
            let a = seeded(r, m, seed);
            let c = seeded(r, n, seed ^ 0x7777);
            let mut fast = Matrix::zeros(m, n);
            let mut naive = Matrix::zeros(m, n);
            kernels::matmul_tn_blocked(&a, &c, &mut fast);
            kernels::matmul_tn_reference(&a, &c, &mut naive);
            prop_assert_eq!(
                fast.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                naive.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }

        /// Zero-heavy operands (where the reference forward kernel takes its
        /// skip path) still agree bit-for-bit.
        #[test]
        fn zero_heavy_matmul_is_bit_identical(
            m in 1usize..6, k in 1usize..20, n in 1usize..50,
            seed in 0u64..1_000,
        ) {
            let a = seeded_zero_heavy(m, k, seed ^ 0x5EED);
            let b = seeded(k, n, seed);
            let mut fast = Matrix::zeros(m, n);
            let mut naive = Matrix::zeros(m, n);
            kernels::matmul_blocked(&a, &b, &mut fast);
            kernels::matmul_reference(&a, &b, &mut naive);
            prop_assert_eq!(
                fast.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                naive.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }

        /// End-to-end backward: a full graph (matmul chains, gelu,
        /// layernorm, causal attention, CE) produces bit-identical
        /// gradients through the blocked and the reference kernels, because
        /// every kernel variant preserves per-element accumulation order.
        /// Up to 71 rows, so attention crosses three 32-wide tiles, and
        /// head sizes past the 16-column strip of `causal_matmul`.
        #[test]
        fn backward_kernels_agree_through_a_full_graph(
            rows in 2usize..72, heads in 1usize..4, hs in 1usize..20, v in 2usize..30,
            seed in 0u64..1_000,
        ) {
            let d = heads * hs;
            let x = seeded(rows, d, seed);
            let w1 = seeded(d, d, seed ^ 1);
            let w2 = seeded(d, v, seed ^ 2);
            let wk = seeded(d, d, seed ^ 3);
            let run = |mode: KernelMode| {
                let mut g = Graph::with_kernels(mode);
                let xi = g.constant(x.clone());
                let p1 = g.param(w1.clone());
                let p2 = g.param(w2.clone());
                let pk = g.param(wk.clone());
                let h = g.matmul(xi, p1);
                let h = g.gelu(h);
                let h = g.layernorm(h);
                let k = g.matmul(xi, pk);
                let ctx = g.causal_attention(h, k, h, heads, 0.5);
                let logits = g.matmul(ctx, p2);
                let logits = g.slice_rows(logits, rows - 1);
                let targets: Vec<usize> = (0..rows - 1).map(|i| i % v).collect();
                let weights = vec![1.0f32; rows - 1];
                let loss = g.cross_entropy(logits, &targets, &weights);
                g.backward(loss);
                (g.value(loss).data[0].to_bits(), bits(&g.value(ctx).clone()),
                    [p1, p2, pk].map(|p| bits(&g.grad(p))))
            };
            let blocked = run(KernelMode::Blocked);
            let reference = run(KernelMode::Reference);
            prop_assert_eq!(blocked, reference);
        }

        /// The triangle kernels equal the full-square reference kernels:
        /// scores on and below the diagonal (nothing written above it),
        /// and both products of a square that is zero above its diagonal.
        #[test]
        fn causal_kernels_match_the_reference_kernels(
            t in 1usize..100, n in 1usize..40, seed in 0u64..1_000,
        ) {
            let a = seeded(t, n, seed);
            let b = seeded(t, n, seed ^ 0x55);
            let mut lower = Matrix::zeros(t, t);
            kernels::matmul_nt_reference(&a, &b, &mut lower);
            for (i, row) in lower.data.chunks_exact_mut(t).enumerate() {
                row[i + 1..].fill(0.0);
            }
            let mut scores = Matrix::zeros(t, t);
            kernels::causal_nt(&a, &b, 1.0, &mut scores);
            prop_assert_eq!(bits(&scores), bits(&lower));
            let (mut want, mut got) = (Matrix::zeros(t, n), Matrix::zeros(t, n));
            kernels::matmul_reference(&lower, &b, &mut want);
            kernels::causal_matmul(&lower, &b, kernels::Triangle::Lower, &mut got);
            prop_assert_eq!(bits(&got), bits(&want));
            kernels::matmul_tn_reference(&lower, &b, &mut want);
            let upper = kernels::transpose(&lower);
            kernels::causal_matmul(&upper, &b, kernels::Triangle::Upper, &mut got);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn kernel_mode_parses_and_displays() {
        for mode in [KernelMode::Blocked, KernelMode::Reference] {
            assert_eq!(mode.as_str().parse::<KernelMode>().unwrap(), mode);
            assert_eq!(format!("{mode}"), mode.as_str());
        }
        for retired in ["avx512", "simd", "int8", "quantized-int8"] {
            let err = retired.parse::<KernelMode>().unwrap_err();
            assert!(err.contains("reference|blocked)"), "{err}");
        }
    }
}
