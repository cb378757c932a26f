//! Same-run reference ceilings: the isolated kernel rate, plain Newmark at
//! the finest step (the Eq. 9 baseline), a memory-bandwidth triad, and the
//! kernel's computed operation and byte counts.

use crate::host::llc_bytes;
use lts_core::{LtsSetup, Newmark, Operator, Workspace};
use std::hint::black_box;
use std::time::Instant;

/// Isolated, warm masked products over the stepper's own level lists, in
/// the stepper's mix (level `k` applied `2^k` times per pass): element
/// operations per second with no vector updates in between.
pub fn kernel_peak_elem_per_s<O: Operator>(op: &O, setup: &LtsSetup, u: &[f64], min_s: f64) -> f64 {
    let mut ws = Workspace::new();
    let mut out = vec![0.0; op.ndof()];
    let pass = |ws: &mut Workspace, out: &mut [f64]| {
        for (k, elems) in setup.elems.iter().enumerate() {
            for _ in 0..1u32 << k {
                op.apply_masked_ws(black_box(u), out, elems, &setup.dof_level, k as u8, ws);
            }
        }
    };
    pass(&mut ws, &mut out); // compile gather lists and SIMD plans
    let start = Instant::now();
    let mut passes = 0u64;
    while passes < 2 || start.elapsed().as_secs_f64() < min_s {
        pass(&mut ws, &mut out);
        passes += 1;
    }
    black_box(&out);
    (passes * setup.lts_elem_ops()) as f64 / start.elapsed().as_secs_f64()
}

/// Plain Newmark at `Δt / p_max`, the step a non-LTS scheme must take:
/// milliseconds per global `Δt` (`p_max` fine steps), timed over at least
/// two fine steps after one warm-up step.
pub fn newmark_fine_ms_per_dt<O: Operator>(
    op: &O,
    dt: f64,
    p_max: u64,
    u0: &[f64],
    min_s: f64,
) -> f64 {
    let mut nm = Newmark::new(op, dt / p_max as f64);
    let mut u = u0.to_vec();
    let mut v = vec![0.0; u.len()];
    nm.step(&mut u, &mut v, 0.0, &[]);
    let start = Instant::now();
    let mut steps = 0u64;
    while steps < 2 || start.elapsed().as_secs_f64() < min_s {
        nm.step(&mut u, &mut v, 0.0, &[]);
        steps += 1;
    }
    black_box(&u);
    start.elapsed().as_secs_f64() * 1e3 / steps as f64 * p_max as f64
}

/// Largest triad array the benchmark allocates (three are live at once).
pub const TRIAD_MAX_ARRAY_BYTES: u64 = 64 << 20;

/// Result of the `a = b + s·c` bandwidth triad.
pub struct Triad {
    pub gb_per_s: f64,
    pub array_bytes: u64,
    pub llc_bytes: Option<u64>,
}

impl Triad {
    /// Arrays are each at least 4× the LLC, so the triad reads memory, not
    /// cache. False when that would exceed [`TRIAD_MAX_ARRAY_BYTES`].
    pub fn beyond_llc(&self) -> bool {
        self.llc_bytes.is_some_and(|l| self.array_bytes >= 4 * l)
    }
}

/// STREAM-style triad counting 24 bytes per element; the best of the
/// passes run in `min_s` (at least three).
pub fn triad(min_s: f64) -> Triad {
    let llc = llc_bytes();
    let array_bytes = llc
        .map_or(TRIAD_MAX_ARRAY_BYTES, |l| 4 * l)
        .min(TRIAD_MAX_ARRAY_BYTES);
    Triad {
        gb_per_s: triad_gb_per_s(array_bytes, min_s),
        array_bytes,
        llc_bytes: llc,
    }
}

fn triad_gb_per_s(array_bytes: u64, min_s: f64) -> f64 {
    let n = (array_bytes / 8) as usize;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0);
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut passes = 0;
    while passes < 3 || start.elapsed().as_secs_f64() < min_s {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&a);
        best = best.min(t.elapsed().as_secs_f64());
        passes += 1;
    }
    24.0 * n as f64 / best / 1e9
}

/// Computed (not measured) work of one masked acoustic element product at
/// `order`, with `n = order + 1` points per axis: per axis a forward and a
/// transposed sum-factorised contraction (`2n⁴` flops each) plus scaling
/// and accumulation (`3n³`), then the mask and `M⁻¹` scatter (`3n³`).
pub fn flops_per_elem(order: usize) -> f64 {
    let n = (order + 1) as f64;
    3.0 * (4.0 * n.powi(4) + 3.0 * n.powi(3)) + 3.0 * n.powi(3)
}

/// Computed bytes one masked element product moves to and from the global
/// arrays, assuming no reuse between elements: per node a 4-byte gather
/// index, the 8-byte input value, an 8-byte mask, and the 8-byte `M⁻¹`
/// value plus 16 bytes to read and write the output.
pub fn bytes_per_elem(order: usize) -> f64 {
    let n = (order + 1) as f64;
    (4.0 + 8.0 + 8.0 + 8.0 + 16.0) * n.powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_counts_at_order_four() {
        // n = 5: 3·(4·625 + 3·125) + 3·125 = 9000 flops; 44·125 = 5500 B
        assert_eq!(flops_per_elem(4), 9000.0);
        assert_eq!(bytes_per_elem(4), 5500.0);
    }

    #[test]
    fn triad_reports_a_positive_rate() {
        assert!(triad_gb_per_s(1 << 20, 0.0) > 0.0);
        let t = Triad {
            gb_per_s: 1.0,
            array_bytes: 64 << 20,
            llc_bytes: Some(300 << 20),
        };
        assert!(!t.beyond_llc(), "64 MiB arrays sit inside a 300 MiB LLC");
    }
}
