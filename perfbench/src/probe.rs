//! Host roofline probes, timed through public `edgenn_tensor` calls:
//! the best rate of a warm 256-cube GEMM and of an in-place ReLU over a
//! buffer far larger than the last-level cache. They measure the host,
//! so no change to the engine should move them.

use std::hint::black_box;
use std::time::Instant;

use edgenn_tensor::{gemm_into, ops::relu_in_place, Tensor};

fn best_s(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let s = Instant::now();
            f();
            s.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `(GEMM GFLOP/s, streaming GB/s)` on this host.
#[must_use]
pub fn roofline() -> (f64, f64) {
    const N: usize = 256;
    let a = Tensor::random(&[N, N], 1.0, 1);
    let b = Tensor::random(&[N, N], 1.0, 2);
    let mut out = vec![0.0f32; N * N];
    let gemm = best_s(16, || {
        gemm_into(a.as_slice(), b.as_slice(), &mut out, N, N, N);
        black_box(&mut out);
    });

    const LEN: usize = 8 << 20;
    let mut buf = vec![1.0f32; LEN];
    let copy = best_s(5, || {
        relu_in_place(black_box(&mut buf));
    });
    let gflops = 2.0 * (N * N * N) as f64 / gemm / 1e9;
    let gbps = 2.0 * (LEN * 4) as f64 / copy / 1e9;
    (gflops, gbps)
}
