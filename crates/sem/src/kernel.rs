//! The shared scalar stiffness kernel: `tmp = K_e · loc` for one
//! axis-aligned brick element, by sum-factorised tensor contractions.
//! Used by both the structured [`crate::acoustic::AcousticOperator`] and the
//! gather-list-based [`crate::unstructured::UnstructuredAcoustic`], so the
//! two produce bitwise-identical element contributions.

use crate::gll::GllBasis;

/// `tmp = K_e loc` for a brick of dimensions `(hx, hy, hz)` and stiffness
/// coefficient `mu` (`= ρc²`). `loc`, `tmp`, `der` are `(order+1)³` scratch
/// arrays in `a`-fastest layout.
#[allow(clippy::too_many_arguments)]
pub fn scalar_stiffness(
    basis: &GllBasis,
    hx: f64,
    hy: f64,
    hz: f64,
    mu: f64,
    loc: &[f64],
    tmp: &mut [f64],
    der: &mut [f64],
) {
    let np = basis.n_points();
    let d = &basis.d;
    let w3 = &basis.wgll3;
    let jac = 0.125 * hx * hy * hz;
    let idx = |a: usize, b: usize, c: usize| a + np * (b + np * c);

    tmp.fill(0.0);

    // x-direction: der = D_ξ loc; tmp += Dᵀ (w μ J gx² der)
    let cx = mu * jac * (2.0 / hx) * (2.0 / hx);
    for c in 0..np {
        for b in 0..np {
            for a in 0..np {
                let mut s = 0.0;
                for m in 0..np {
                    s += d[a * np + m] * loc[idx(m, b, c)];
                }
                der[idx(a, b, c)] = s * (cx * w3[idx(a, b, c)]);
            }
        }
    }
    for c in 0..np {
        for b in 0..np {
            for i in 0..np {
                let mut s = 0.0;
                for a in 0..np {
                    s += d[a * np + i] * der[idx(a, b, c)];
                }
                tmp[idx(i, b, c)] += s;
            }
        }
    }

    // y-direction
    let cy = mu * jac * (2.0 / hy) * (2.0 / hy);
    for c in 0..np {
        for b in 0..np {
            for a in 0..np {
                let mut s = 0.0;
                for m in 0..np {
                    s += d[b * np + m] * loc[idx(a, m, c)];
                }
                der[idx(a, b, c)] = s * (cy * w3[idx(a, b, c)]);
            }
        }
    }
    for c in 0..np {
        for i in 0..np {
            for a in 0..np {
                let mut s = 0.0;
                for b in 0..np {
                    s += d[b * np + i] * der[idx(a, b, c)];
                }
                tmp[idx(a, i, c)] += s;
            }
        }
    }

    // z-direction
    let cz = mu * jac * (2.0 / hz) * (2.0 / hz);
    for c in 0..np {
        for b in 0..np {
            for a in 0..np {
                let mut s = 0.0;
                for m in 0..np {
                    s += d[c * np + m] * loc[idx(a, b, m)];
                }
                der[idx(a, b, c)] = s * (cz * w3[idx(a, b, c)]);
            }
        }
    }
    for i in 0..np {
        for b in 0..np {
            for a in 0..np {
                let mut s = 0.0;
                for c in 0..np {
                    s += d[c * np + i] * der[idx(a, b, c)];
                }
                tmp[idx(a, b, i)] += s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_in_nullspace() {
        let b = GllBasis::new(3);
        let npe = 4 * 4 * 4;
        let loc = vec![2.5; npe];
        let mut tmp = vec![0.0; npe];
        let mut der = vec![0.0; npe];
        scalar_stiffness(&b, 1.0, 2.0, 0.5, 1.7, &loc, &mut tmp, &mut der);
        for (i, &t) in tmp.iter().enumerate() {
            assert!(t.abs() < 1e-12, "entry {i}: {t}");
        }
    }

    #[test]
    fn scales_linearly_with_mu() {
        let b = GllBasis::new(2);
        let npe = 27;
        let loc: Vec<f64> = (0..npe).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut t1 = vec![0.0; npe];
        let mut t2 = vec![0.0; npe];
        let mut der = vec![0.0; npe];
        scalar_stiffness(&b, 1.0, 1.0, 1.0, 1.0, &loc, &mut t1, &mut der);
        scalar_stiffness(&b, 1.0, 1.0, 1.0, 3.0, &loc, &mut t2, &mut der);
        for i in 0..npe {
            assert!((t2[i] - 3.0 * t1[i]).abs() < 1e-12 * (1.0 + t1[i].abs()));
        }
    }

    #[test]
    fn symmetric_element_matrix() {
        // vᵀ K u == uᵀ K v on the element level
        let b = GllBasis::new(2);
        let npe = 27;
        let u: Vec<f64> = (0..npe).map(|i| ((i * 5 % 11) as f64) / 11.0).collect();
        let v: Vec<f64> = (0..npe).map(|i| ((i * 7 % 13) as f64) / 13.0).collect();
        let mut ku = vec![0.0; npe];
        let mut kv = vec![0.0; npe];
        let mut der = vec![0.0; npe];
        scalar_stiffness(&b, 0.8, 1.1, 1.3, 2.0, &u, &mut ku, &mut der);
        scalar_stiffness(&b, 0.8, 1.1, 1.3, 2.0, &v, &mut kv, &mut der);
        let lhs: f64 = v.iter().zip(&ku).map(|(a, b)| a * b).sum();
        let rhs: f64 = u.iter().zip(&kv).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-11 * lhs.abs().max(1.0));
    }
}
