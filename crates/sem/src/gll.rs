//! Gauss–Legendre–Lobatto points, weights and the Lagrange derivative
//! matrix on `[-1, 1]`.
//!
//! GLL collocation + GLL quadrature is the defining choice of the SEM: the
//! quadrature is exact for polynomials of degree ≤ 2n−1, slightly
//! under-integrating the degree-2n mass integrand — which is precisely what
//! makes the mass matrix diagonal while retaining spectral convergence.

/// Legendre polynomial `P_n(x)` and its derivative, by the three-term
/// recurrence.
fn legendre(n: usize, x: f64) -> (f64, f64) {
    if n == 0 {
        return (1.0, 0.0);
    }
    let (mut p0, mut p1) = (1.0, x);
    for k in 2..=n {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    // P'_n from P_n, P_{n-1}
    let dp = if x.abs() < 1.0 {
        n as f64 * (p0 - x * p1) / (1.0 - x * x)
    } else {
        // |x| = 1: P'_n(±1) = ±^{n+1} n(n+1)/2
        let s = if x > 0.0 {
            1.0
        } else {
            (-1.0f64).powi(n as i32 + 1)
        };
        s * n as f64 * (n as f64 + 1.0) / 2.0
    };
    (p1, dp)
}

/// The GLL basis of polynomial order `n` (`n + 1` points).
#[derive(Debug, Clone)]
pub struct GllBasis {
    pub(crate) order: usize,
    /// Collocation points in `[-1, 1]`, ascending.
    pub points: Vec<f64>,
    /// Quadrature weights (sum to 2).
    pub(crate) weights: Vec<f64>,
    /// Derivative matrix, row-major: `d[i*(n+1)+j] = l'_j(ξ_i)`.
    pub d: Vec<f64>,
    /// Fused 3-D weight table, `a`-fastest:
    /// `wgll3[a + (n+1)(b + (n+1)c)] = w_a·w_b·w_c`. Lets the stiffness
    /// kernels skip the per-node weight products.
    pub(crate) wgll3: Vec<f64>,
}

impl GllBasis {
    pub fn new(order: usize) -> Self {
        assert!(
            (1..=16).contains(&order),
            "unsupported polynomial order {order}"
        );
        let n = order;
        let np = n + 1;
        let mut points = vec![0.0; np];
        points[0] = -1.0;
        points[n] = 1.0;
        // interior points: roots of P'_n, seeded from Chebyshev–Gauss–Lobatto
        for i in 1..n {
            let mut x = -(std::f64::consts::PI * i as f64 / n as f64).cos();
            for _ in 0..100 {
                // Newton on f = (1-x²)P'_n(x); f' = -2xP'_n + (1-x²)P''_n
                // use the Legendre ODE: (1-x²)P''_n = 2xP'_n − n(n+1)P_n
                let (p, dp) = legendre(n, x);
                let f = (1.0 - x * x) * dp;
                let fp = 2.0 * x * dp - n as f64 * (n as f64 + 1.0) * p - 2.0 * x * dp;
                // fp = −n(n+1)P_n(x)
                let _ = fp;
                let step = f / (-(n as f64) * (n as f64 + 1.0) * p);
                x -= step;
                if step.abs() < 1e-15 {
                    break;
                }
            }
            points[i] = x;
        }
        // enforce symmetry exactly
        for i in 0..np / 2 {
            let s = 0.5 * (points[i] - points[n - i]);
            points[i] = s;
            points[n - i] = -s;
        }
        if np % 2 == 1 {
            points[n / 2] = 0.0;
        }

        let weights: Vec<f64> = points
            .iter()
            .map(|&x| {
                let (p, _) = legendre(n, x);
                2.0 / (n as f64 * (n as f64 + 1.0) * p * p)
            })
            .collect();

        // derivative matrix
        let mut d = vec![0.0; np * np];
        for i in 0..np {
            let (pi, _) = legendre(n, points[i]);
            for j in 0..np {
                if i == j {
                    continue;
                }
                let (pj, _) = legendre(n, points[j]);
                d[i * np + j] = pi / (pj * (points[i] - points[j]));
            }
        }
        d[0] = -(n as f64) * (n as f64 + 1.0) / 4.0;
        d[np * np - 1] = n as f64 * (n as f64 + 1.0) / 4.0;

        let mut wgll3 = vec![0.0; np * np * np];
        for c in 0..np {
            for b in 0..np {
                for a in 0..np {
                    wgll3[a + np * (b + np * c)] = weights[a] * weights[b] * weights[c];
                }
            }
        }

        GllBasis {
            order: n,
            points,
            weights,
            d,
            wgll3,
        }
    }

    #[inline]
    pub fn n_points(&self) -> usize {
        self.order + 1
    }

    /// Integrate nodal values with the GLL rule.
    pub fn integrate(&self, f: &[f64]) -> f64 {
        f.iter().zip(&self.weights).map(|(a, w)| a * w).sum()
    }

    /// Smallest collocation gap on the reference element (between the
    /// endpoint and its neighbour); shrinks like `O(1/n²)`.
    pub(crate) fn min_spacing(&self) -> f64 {
        self.points[1] - self.points[0]
    }
}

/// CFL scale for an order-`order` SEM in `dim` dimensions: the mesh-level
/// bound `Δt ≤ C·h/c` must additionally pay the reference-element GLL
/// spacing (`min gap / 2`) and the dimensional factor `1/√dim`. Multiply a
/// corner-mesh `dt_global` by this before time stepping.
pub fn cfl_dt_scale(order: usize, dim: usize) -> f64 {
    let b = GllBasis::new(order);
    0.5 * b.min_spacing() / (dim as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order4_known_points_and_weights() {
        // classical values: 0, ±√(3/7), ±1; weights 32/45, 49/90, 1/10
        let b = GllBasis::new(4);
        let s37 = (3.0f64 / 7.0).sqrt();
        let expect = [-1.0, -s37, 0.0, s37, 1.0];
        for (p, e) in b.points.iter().zip(expect) {
            assert!((p - e).abs() < 1e-14, "{p} vs {e}");
        }
        let we = [0.1, 49.0 / 90.0, 32.0 / 45.0, 49.0 / 90.0, 0.1];
        for (w, e) in b.weights.iter().zip(we) {
            assert!((w - e).abs() < 1e-14, "{w} vs {e}");
        }
    }

    #[test]
    fn order2_is_simpson() {
        let b = GllBasis::new(2);
        assert_eq!(b.points, vec![-1.0, 0.0, 1.0]);
        let we = [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0];
        for (w, e) in b.weights.iter().zip(we) {
            assert!((w - e).abs() < 1e-14);
        }
    }

    #[test]
    fn weights_sum_to_two() {
        for n in 1..=10 {
            let b = GllBasis::new(n);
            let s: f64 = b.weights.iter().sum();
            assert!((s - 2.0).abs() < 1e-12, "order {n}: Σw = {s}");
        }
    }

    #[test]
    fn quadrature_exact_to_2n_minus_1() {
        for n in 2..=8 {
            let b = GllBasis::new(n);
            for k in 0..=(2 * n - 1) {
                let f: Vec<f64> = b.points.iter().map(|&x| x.powi(k as i32)).collect();
                let exact = if k % 2 == 1 {
                    0.0
                } else {
                    2.0 / (k as f64 + 1.0)
                };
                assert!((b.integrate(&f) - exact).abs() < 1e-12, "order {n}, ∫x^{k}");
            }
        }
    }

    #[test]
    fn derivative_matrix_exact_on_polynomials() {
        for n in 2..=8 {
            let b = GllBasis::new(n);
            let np = n + 1;
            for k in 0..=n {
                let f: Vec<f64> = b.points.iter().map(|&x| x.powi(k as i32)).collect();
                // out_i = Σ_j D_ij f_j
                let out: Vec<f64> = (0..np)
                    .map(|i| (0..np).map(|j| b.d[i * np + j] * f[j]).sum())
                    .collect();
                for (i, &x) in b.points.iter().enumerate() {
                    let exact = if k == 0 {
                        0.0
                    } else {
                        k as f64 * x.powi(k as i32 - 1)
                    };
                    assert!(
                        (out[i] - exact).abs() < 1e-10 * (1.0 + exact.abs()),
                        "order {n}, d/dx x^{k} at point {i}: {} vs {exact}",
                        out[i]
                    );
                }
            }
        }
    }

    #[test]
    fn derivative_rows_sum_to_zero() {
        // d/dx of the constant function is zero
        for n in 1..=10 {
            let b = GllBasis::new(n);
            let np = n + 1;
            for i in 0..np {
                let s: f64 = b.d[i * np..(i + 1) * np].iter().sum();
                assert!(s.abs() < 1e-11, "order {n} row {i}: {s}");
            }
        }
    }

    #[test]
    fn wgll3_is_the_tensor_weight_product() {
        for n in 1..=6 {
            let b = GllBasis::new(n);
            let np = n + 1;
            assert_eq!(b.wgll3.len(), np * np * np);
            for c in 0..np {
                for bb in 0..np {
                    for a in 0..np {
                        assert_eq!(
                            b.wgll3[a + np * (bb + np * c)],
                            b.weights[a] * b.weights[bb] * b.weights[c],
                            "order {n} at ({a},{bb},{c})"
                        );
                    }
                }
            }
            let s: f64 = b.wgll3.iter().sum();
            assert!((s - 8.0).abs() < 1e-12, "Σ wgll3 = {s} (volume of cube)");
        }
    }

    #[test]
    fn points_ascending_and_symmetric() {
        for n in 1..=12 {
            let b = GllBasis::new(n);
            assert!(b.points.windows(2).all(|w| w[1] > w[0]));
            for i in 0..=n {
                assert!((b.points[i] + b.points[n - i]).abs() < 1e-15);
                assert!((b.weights[i] - b.weights[n - i]).abs() < 1e-14);
            }
        }
    }
}
