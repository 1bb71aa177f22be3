//! Base-result computation: dispatch to the BAT or dense kernels (§7.3).
//!
//! The dense path times the BAT→contiguous copy, the kernel, and the copy
//! back separately, so the Fig. 14 transformation-share experiment can read
//! the exact split from [`ExecStats`](crate::ExecStats).

use crate::context::{elapsed_ns, Backend, KernelUsed, RmaContext};
use crate::error::RmaError;
use crate::shape::RmaOp;
use rma_linalg::bat;
use rma_linalg::dense::{self, Matrix};
use rma_storage::CounterSnapshot;
use std::time::Instant;

/// Base result of a kernel invocation.
#[derive(Debug)]
pub enum KernelOut {
    /// Column vectors of the result matrix.
    Cols(Vec<Vec<f64>>),
    /// A scalar (det, rnk).
    Scalar(f64),
}

impl KernelOut {
    /// The result as columns; a scalar becomes a single 1×1 column.
    pub fn into_cols(self) -> Vec<Vec<f64>> {
        match self {
            KernelOut::Cols(c) => c,
            KernelOut::Scalar(s) => vec![vec![s]],
        }
    }
}

/// Does the BAT kernel family implement this operation?
pub fn bat_supports(op: RmaOp) -> bool {
    !matches!(
        op,
        RmaOp::Dsv | RmaOp::Usv | RmaOp::Vsv | RmaOp::Evl | RmaOp::Evc
    )
}

/// Execute a unary base operation on an application part.
pub fn eval_unary(
    ctx: &RmaContext,
    op: RmaOp,
    app: &[Vec<f64>],
    tally: &mut CounterSnapshot,
) -> Result<KernelOut, RmaError> {
    let m = app.first().map_or(0, Vec::len);
    let n = app.len();
    let mut backend = ctx.choose_kernel(op, m, n, None);
    let mut kernel_used = match backend {
        Backend::Bat => KernelUsed::Bat,
        _ => KernelUsed::Dense,
    };
    if backend == Backend::Bat && !bat_supports(op) {
        backend = Backend::Dense;
        kernel_used = KernelUsed::DenseFallback;
    }
    let out = match backend {
        Backend::Bat => {
            let t = Instant::now();
            let out = bat_unary(op, app)?;
            tally.compute_ns += elapsed_ns(t);
            out
        }
        _ => {
            let t = Instant::now();
            let dense_in = Matrix::from_columns(app)?;
            tally.copy_in_ns += elapsed_ns(t);
            let t = Instant::now();
            let out = dense_unary(op, &dense_in)?;
            tally.compute_ns += elapsed_ns(t);
            let t = Instant::now();
            let out = match out {
                DenseOut::Matrix(mx) => KernelOut::Cols(mx.into_columns()),
                DenseOut::Vector(v) => KernelOut::Cols(vec![v]),
                DenseOut::Scalar(s) => KernelOut::Scalar(s),
            };
            tally.copy_out_ns += elapsed_ns(t);
            out
        }
    };
    tally.ops_run += 1;
    ctx.set_last_kernel(kernel_used);
    Ok(out)
}

/// Execute a binary base operation.
pub fn eval_binary(
    ctx: &RmaContext,
    op: RmaOp,
    a: &[Vec<f64>],
    b: &[Vec<f64>],
    tally: &mut CounterSnapshot,
) -> Result<KernelOut, RmaError> {
    let m = a.first().map_or(0, Vec::len);
    let n = a.len();
    let second = (b.first().map_or(0, Vec::len), b.len());
    let backend = ctx.choose_kernel(op, m, n, Some(second));
    let out = match backend {
        Backend::Bat => {
            let t = Instant::now();
            let out = bat_binary(op, a, b)?;
            tally.compute_ns += elapsed_ns(t);
            ctx.set_last_kernel(KernelUsed::Bat);
            out
        }
        _ => {
            let t = Instant::now();
            let ma = Matrix::from_columns(a)?;
            let mb = Matrix::from_columns(b)?;
            tally.copy_in_ns += elapsed_ns(t);
            let t = Instant::now();
            let out = dense_binary(op, &ma, &mb)?;
            tally.compute_ns += elapsed_ns(t);
            let t = Instant::now();
            let out = KernelOut::Cols(out.into_columns());
            tally.copy_out_ns += elapsed_ns(t);
            ctx.set_last_kernel(KernelUsed::Dense);
            out
        }
    };
    tally.ops_run += 1;
    Ok(out)
}

fn bat_unary(op: RmaOp, app: &[Vec<f64>]) -> Result<KernelOut, RmaError> {
    let out = match op {
        RmaOp::Inv => KernelOut::Cols(bat::inv(app)?),
        RmaOp::Qqr => KernelOut::Cols(bat::qqr(app)?),
        RmaOp::Rqr => KernelOut::Cols(bat::rqr(app)?),
        RmaOp::Tra => KernelOut::Cols(bat::tra(app)?),
        RmaOp::Chf => KernelOut::Cols(bat::chf(app)?),
        RmaOp::Det => KernelOut::Scalar(bat::det(app)?),
        RmaOp::Rnk => KernelOut::Scalar(bat::rnk(app)? as f64),
        other => unreachable!("bat_unary called for unsupported op {other:?}"),
    };
    Ok(out)
}

enum DenseOut {
    Matrix(Matrix),
    Vector(Vec<f64>),
    Scalar(f64),
}

fn dense_unary(op: RmaOp, a: &Matrix) -> Result<DenseOut, RmaError> {
    let out = match op {
        RmaOp::Inv => DenseOut::Matrix(dense::inverse(a)?),
        RmaOp::Qqr => DenseOut::Matrix(dense::qr(a)?.q),
        RmaOp::Rqr => DenseOut::Matrix(dense::qr(a)?.r),
        RmaOp::Tra => DenseOut::Matrix(a.transpose()),
        RmaOp::Chf => DenseOut::Matrix(dense::cholesky(a)?),
        RmaOp::Det => DenseOut::Scalar(dense::det(a)?),
        RmaOp::Rnk => DenseOut::Scalar(dense::rank(a)? as f64),
        RmaOp::Evl => DenseOut::Vector(dense::eigenvalues(a)?),
        RmaOp::Evc => DenseOut::Matrix(dense::eigen(a)?.vectors),
        RmaOp::Dsv => {
            // D as the square j×j diagonal matrix of singular values
            let s = dense::svd(a)?.s;
            let n = s.len();
            let mut d = Matrix::zeros(n, n);
            for (i, &sv) in s.iter().enumerate() {
                d.set(i, i, sv);
            }
            DenseOut::Matrix(d)
        }
        RmaOp::Usv => DenseOut::Matrix(full_u(a)?),
        RmaOp::Vsv => {
            // singular values of the m×n input, extended by the zero
            // singular values of A·Aᵀ to length m (shape type (r1, 1))
            let mut s = dense::svd(a)?.s;
            s.resize(a.rows(), 0.0);
            DenseOut::Vector(s)
        }
        other => unreachable!("dense_unary called for binary op {other:?}"),
    };
    Ok(out)
}

fn dense_binary(op: RmaOp, a: &Matrix, b: &Matrix) -> Result<Matrix, RmaError> {
    let out = match op {
        RmaOp::Mmu => dense::matmul(a, b)?,
        RmaOp::Cpd => dense::crossprod(a, b)?,
        RmaOp::Opd => dense::outer(a, b)?,
        RmaOp::Sol => dense::solve(a, b)?,
        RmaOp::Add => a.zip_with_parallel(b, |x, y| x + y)?,
        RmaOp::Sub => a.zip_with_parallel(b, |x, y| x - y)?,
        RmaOp::Emu => a.zip_with_parallel(b, |x, y| x * y)?,
        other => unreachable!("dense_binary called for unary op {other:?}"),
    };
    Ok(out)
}

fn bat_binary(op: RmaOp, a: &[Vec<f64>], b: &[Vec<f64>]) -> Result<KernelOut, RmaError> {
    let out = match op {
        RmaOp::Mmu => bat::mmu(a, b)?,
        RmaOp::Cpd => bat::cpd(a, b)?,
        RmaOp::Opd => bat::opd(a, b)?,
        RmaOp::Sol => bat::sol(a, b)?,
        RmaOp::Add => bat::add(a, b)?,
        RmaOp::Sub => bat::sub(a, b)?,
        RmaOp::Emu => bat::emu(a, b)?,
        other => unreachable!("bat_binary called for unary op {other:?}"),
    };
    Ok(KernelOut::Cols(out))
}

/// Complete the thin-SVD `U` (m×n) to the full orthonormal `m×m` basis by
/// Gram-Schmidt against the standard basis (the extra columns span the
/// null space of `Aᵀ` and correspond to zero singular values).
fn full_u(a: &Matrix) -> Result<Matrix, RmaError> {
    let thin = dense::svd(a)?.u;
    let m = thin.rows();
    let mut basis: Vec<Vec<f64>> = (0..thin.cols()).map(|j| thin.col(j).to_vec()).collect();
    // drop zero columns (rank deficiency in the thin U)
    basis.retain(|c| norm(c) > 1e-12);
    let mut e = 0usize;
    while basis.len() < m && e < m {
        let mut v = vec![0.0; m];
        v[e] = 1.0;
        e += 1;
        for q in &basis {
            let proj = dotv(q, &v);
            for (t, &qi) in v.iter_mut().zip(q) {
                *t -= proj * qi;
            }
        }
        let n = norm(&v);
        if n > 1e-8 {
            for t in v.iter_mut() {
                *t /= n;
            }
            basis.push(v);
        }
    }
    if basis.len() != m {
        return Err(RmaError::Linalg(rma_linalg::LinalgError::NotConverged));
    }
    Ok(Matrix::from_columns(&basis)?)
}

fn dotv(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(v: &[f64]) -> f64 {
    dotv(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::RmaOptions;

    fn square() -> Vec<Vec<f64>> {
        vec![vec![6.0, 8.0], vec![7.0, 5.0]]
    }

    #[test]
    fn unary_backends_agree_on_inv() {
        let mut s = CounterSnapshot::default();
        let bat_ctx = RmaContext::with_backend(Backend::Bat);
        let dense_ctx = RmaContext::with_backend(Backend::Dense);
        let a = eval_unary(&bat_ctx, RmaOp::Inv, &square(), &mut s)
            .unwrap()
            .into_cols();
        let b = eval_unary(&dense_ctx, RmaOp::Inv, &square(), &mut s)
            .unwrap()
            .into_cols();
        for (ca, cb) in a.iter().zip(&b) {
            for (x, y) in ca.iter().zip(cb) {
                assert!((x - y).abs() < 1e-10);
            }
        }
        assert_eq!(dense_ctx.stats().last_kernel, Some(KernelUsed::Dense));
    }

    #[test]
    fn bat_forced_falls_back_for_svd() {
        let mut s = CounterSnapshot::default();
        let ctx = RmaContext::with_backend(Backend::Bat);
        let app = vec![vec![2.0, 0.0, 0.0], vec![0.0, 5.0, 0.0]];
        let out = eval_unary(&ctx, RmaOp::Vsv, &app, &mut s)
            .unwrap()
            .into_cols();
        assert_eq!(ctx.stats().last_kernel, Some(KernelUsed::DenseFallback));
        assert_eq!(out[0].len(), 3); // padded to m rows
        assert!((out[0][0] - 5.0).abs() < 1e-12);
        assert!((out[0][1] - 2.0).abs() < 1e-12);
        assert_eq!(out[0][2], 0.0);
    }

    #[test]
    fn dense_path_records_copy_time() {
        let mut s = CounterSnapshot::default();
        let ctx = RmaContext::with_backend(Backend::Dense);
        eval_unary(&ctx, RmaOp::Qqr, &square(), &mut s).unwrap();
        assert!(s.copy_in_ns > 0);
        assert_eq!(s.ops_run, 1);
    }

    #[test]
    fn bat_path_records_no_copy_time() {
        let mut s = CounterSnapshot::default();
        let ctx = RmaContext::with_backend(Backend::Bat);
        eval_unary(&ctx, RmaOp::Inv, &square(), &mut s).unwrap();
        assert!(s.copy_in_ns == 0 && s.copy_out_ns == 0);
        assert_eq!(ctx.stats().last_kernel, Some(KernelUsed::Bat));
    }

    #[test]
    fn auto_uses_bat_for_elementwise() {
        let mut s = CounterSnapshot::default();
        let ctx = RmaContext::new(RmaOptions::default());
        let a = vec![vec![1.0, 2.0]];
        let b = vec![vec![10.0, 20.0]];
        let out = eval_binary(&ctx, RmaOp::Add, &a, &b, &mut s)
            .unwrap()
            .into_cols();
        assert_eq!(out[0], vec![11.0, 22.0]);
        assert_eq!(ctx.stats().last_kernel, Some(KernelUsed::Bat));
    }

    #[test]
    fn binary_backends_agree_on_mmu() {
        let mut s = CounterSnapshot::default();
        let a = vec![vec![1.0, 3.0], vec![2.0, 4.0]]; // [[1,2],[3,4]]
        let b = vec![vec![5.0, 7.0], vec![6.0, 8.0]]; // [[5,6],[7,8]]
        let bat = eval_binary(
            &RmaContext::with_backend(Backend::Bat),
            RmaOp::Mmu,
            &a,
            &b,
            &mut s,
        )
        .unwrap()
        .into_cols();
        let dense = eval_binary(
            &RmaContext::with_backend(Backend::Dense),
            RmaOp::Mmu,
            &a,
            &b,
            &mut s,
        )
        .unwrap()
        .into_cols();
        assert_eq!(bat, dense);
        assert_eq!(bat, vec![vec![19.0, 43.0], vec![22.0, 50.0]]);
    }

    #[test]
    fn usv_full_u_is_square_orthonormal() {
        let mut s = CounterSnapshot::default();
        let ctx = RmaContext::with_backend(Backend::Dense);
        // 4×2 application part → U must be 4×4
        let app = vec![vec![1.0, 1.0, 6.0, 8.0], vec![3.0, 4.0, 7.0, 5.0]];
        let u = eval_unary(&ctx, RmaOp::Usv, &app, &mut s)
            .unwrap()
            .into_cols();
        assert_eq!(u.len(), 4);
        assert_eq!(u[0].len(), 4);
        for i in 0..4 {
            for j in 0..4 {
                let d = dotv(&u[i], &u[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-8, "U not orthonormal at {i},{j}");
            }
        }
    }

    #[test]
    fn scalar_ops() {
        let mut s = CounterSnapshot::default();
        let ctx = RmaContext::default();
        let out = eval_unary(&ctx, RmaOp::Det, &square(), &mut s).unwrap();
        match out {
            KernelOut::Scalar(d) => assert!((d - -26.0).abs() < 1e-9),
            _ => panic!("det must be scalar"),
        }
        let out = eval_unary(&ctx, RmaOp::Rnk, &square(), &mut s).unwrap();
        match out {
            KernelOut::Scalar(r) => assert_eq!(r, 2.0),
            _ => panic!("rnk must be scalar"),
        }
    }
}
