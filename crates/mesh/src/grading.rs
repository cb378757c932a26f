//! Coordinate-plane grading: building axes with locally squeezed spacing.
//!
//! Real application meshes pinch elements where internal or external
//! topographies meet (the paper's *trench*) or pack small elements along the
//! free surface (the *crust*). These helpers build strictly increasing plane
//! sets whose local spacing drops by a chosen factor inside refinement bands,
//! with geometric transition zones so the spacing ratio between neighbouring
//! cells stays bounded.

/// A refinement band on one axis: cells whose centers fall in
/// `[start, end]` get spacing `base_h / squeeze`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Band {
    pub(crate) start: f64,
    pub(crate) end: f64,
    /// Spacing reduction factor (≥ 1). A `squeeze` of 8 produces elements
    /// eight times thinner than the base spacing inside the band.
    pub(crate) squeeze: f64,
}

/// Build graded planes covering `[0, length]` with base spacing `base_h`,
/// refined inside `bands`. Between the base spacing and a band the spacing
/// transitions geometrically with ratio ≤ 2 per cell.
///
/// The result is strictly increasing and ends exactly at `length` (the last
/// cell absorbs the rounding remainder, staying within ±50 % of its target).
pub(crate) fn graded_planes(length: f64, base_h: f64, bands: &[Band]) -> Vec<f64> {
    assert!(length > 0.0 && base_h > 0.0);
    assert!(base_h <= length, "base spacing larger than axis");
    for b in bands {
        assert!(b.squeeze >= 1.0, "squeeze must be ≥ 1");
        assert!(b.start < b.end, "empty band");
    }
    // Target spacing at coordinate x: minimum over bands (with geometric
    // transition ramps outside each band edge).
    let target = |x: f64| -> f64 {
        let mut h = base_h;
        for b in bands {
            let hb = base_h / b.squeeze;
            let inside = x >= b.start && x <= b.end;
            let d = if inside {
                0.0
            } else if x < b.start {
                b.start - x
            } else {
                x - b.end
            };
            // geometric ramp: at distance d from the band the spacing may be
            // at most d/2, so the ratio-2 descent completes *before* the
            // band edge (h, h/2, h/4, … sums to the remaining distance).
            let allowed = hb.max(0.5 * d).min(base_h);
            h = h.min(allowed);
        }
        h
    };
    let mut planes = vec![0.0];
    let mut x = 0.0;
    while x < length {
        let mut h = target(x);
        // keep the ratio with the previous cell bounded by 2
        if planes.len() >= 2 {
            let prev = planes[planes.len() - 1] - planes[planes.len() - 2];
            h = h.min(prev * 2.0).max(prev * 0.5);
        }
        x += h;
        planes.push(x);
    }
    // Snap the tail to exactly `length`.
    let n = planes.len();
    if n >= 2 {
        let overshoot = planes[n - 1] - length;
        let last_h = planes[n - 1] - planes[n - 2];
        if overshoot > 0.5 * last_h && n >= 3 {
            planes.pop();
        }
        *planes.last_mut().unwrap() = length;
    }
    assert!(
        planes.windows(2).all(|w| w[1] > w[0]),
        "grading produced non-monotone planes"
    );
    planes
}

/// Uniform planes covering `[0, length]` with `n` cells.
pub(crate) fn uniform_planes(length: f64, n: usize) -> Vec<f64> {
    assert!(n >= 1);
    (0..=n).map(|i| length * i as f64 / n as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_planes_basic() {
        let p = uniform_planes(2.0, 4);
        assert_eq!(p.len(), 5);
        assert!((p[2] - 1.0).abs() < 1e-15);
        assert_eq!(*p.last().unwrap(), 2.0);
    }

    #[test]
    fn no_bands_is_roughly_uniform() {
        let p = graded_planes(10.0, 1.0, &[]);
        assert_eq!(p.len(), 11);
        for w in p.windows(2) {
            assert!((w[1] - w[0] - 1.0).abs() < 0.51);
        }
    }

    #[test]
    fn band_refines_spacing() {
        let band = Band {
            start: 4.0,
            end: 6.0,
            squeeze: 8.0,
        };
        let p = graded_planes(10.0, 1.0, &[band]);
        assert_eq!(*p.last().unwrap(), 10.0);
        // inside the band, spacing should be ≈ 1/8
        let fine: Vec<f64> = p
            .windows(2)
            .filter(|w| w[0] >= 4.4 && w[1] <= 5.6)
            .map(|w| w[1] - w[0])
            .collect();
        assert!(!fine.is_empty());
        for h in &fine {
            assert!(*h < 0.2, "band spacing {h} not refined");
        }
    }

    #[test]
    fn ratio_between_cells_bounded() {
        let band = Band {
            start: 3.0,
            end: 3.5,
            squeeze: 16.0,
        };
        let p = graded_planes(12.0, 1.0, &[band]);
        for w in p.windows(3) {
            let h0 = w[1] - w[0];
            let h1 = w[2] - w[1];
            let r = (h1 / h0).max(h0 / h1);
            assert!(r <= 2.0 + 1e-9, "spacing ratio {r} too abrupt");
        }
    }

    #[test]
    fn monotone_with_multiple_bands() {
        let bands = [
            Band {
                start: 1.0,
                end: 2.0,
                squeeze: 4.0,
            },
            Band {
                start: 7.0,
                end: 7.5,
                squeeze: 8.0,
            },
        ];
        let p = graded_planes(10.0, 1.0, &bands);
        assert!(p.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(*p.last().unwrap(), 10.0);
    }
}
