//! Explicit-SIMD batched stiffness kernels with runtime dispatch.
//!
//! The scalar kernels in [`crate::kernel`] and [`crate::elastic`] process one
//! element at a time. This module provides *batched* twins that process one
//! SIMD-register-width of same-order elements per call — lane `l` of every
//! vector operation executes exactly the scalar kernel's arithmetic for
//! element `l` of the batch. Because only *vertical* lane-wise `mul`/`add`
//! operations are used (never FMA, never horizontal reductions), each lane's
//! IEEE-754 operation sequence is identical to the scalar kernel's, so the
//! batched results are **bitwise equal** to the scalar path — the property
//! the LTS determinism contract (`DESIGN.md` §9) is built on.
//!
//! Batched fields use a structure-of-arrays layout: value of lane `l` at
//! local node `q` lives at `q * LANES + l`, so the transposed id table of a
//! `crate::compiled::CompiledGather` streams contiguously into lanes.
//!
//! Dispatch is by runtime CPU detection ([`KernelVariant`]): AVX-512F
//! (8 lanes), AVX2 (4 lanes), NEON (2 lanes), with a scalar fallback that
//! never touches this module's kernels. No nightly features: `std::arch`
//! intrinsics only, all stable. The `unsafe` here joins the crate's audited
//! surface (`disjoint.rs` is the other half); every kernel's precondition is
//! the *dispatch precondition*: it is reachable only through a
//! [`KernelVariant`] that runtime feature detection (or a support-clamped
//! override) produced, so the required instruction set is present.
//!
//! The `simd` cargo feature (default on) gates the intrinsics; without it
//! every variant degrades to [`KernelVariant::Scalar`] and the operators use
//! the per-element path unchanged.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Widest supported lane count (AVX-512); coefficient tables are sized for
/// this so one buffer serves every variant.
pub(crate) const MAX_LANES: usize = 8;

/// The kernel implementation selected by runtime CPU feature detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVariant {
    /// Per-element scalar kernels (always available).
    Scalar,
    /// 2 × f64 per register (aarch64).
    Neon,
    /// 4 × f64 per register (x86-64).
    Avx2,
    /// 8 × f64 per register (x86-64).
    Avx512,
}

impl KernelVariant {
    /// Elements processed per batch by this variant.
    pub fn lanes(self) -> usize {
        match self {
            KernelVariant::Scalar => 1,
            KernelVariant::Neon => 2,
            KernelVariant::Avx2 => 4,
            KernelVariant::Avx512 => 8,
        }
    }

    /// Stable identifier recorded in bench `host` blocks.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Neon => "neon",
            KernelVariant::Avx2 => "avx2",
            KernelVariant::Avx512 => "avx512f",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            KernelVariant::Scalar => 0,
            KernelVariant::Neon => 1,
            KernelVariant::Avx2 => 2,
            KernelVariant::Avx512 => 3,
        }
    }

    fn from_u8(x: u8) -> KernelVariant {
        match x {
            1 => KernelVariant::Neon,
            2 => KernelVariant::Avx2,
            3 => KernelVariant::Avx512,
            _ => KernelVariant::Scalar,
        }
    }

    /// Whether this build and CPU can actually execute the variant.
    pub(crate) fn is_supported(self) -> bool {
        match self {
            KernelVariant::Scalar => true,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelVariant::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelVariant::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            KernelVariant::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }
}

/// The widest variant this build and CPU support.
pub(crate) fn detected() -> KernelVariant {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return KernelVariant::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelVariant::Avx2;
        }
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return KernelVariant::Neon;
        }
    }
    KernelVariant::Scalar
}

/// Every variant `KernelVariant::is_supported` on this build and CPU,
/// scalar first. Test harnesses iterate this to cover all reachable paths.
pub fn supported_variants() -> Vec<KernelVariant> {
    [
        KernelVariant::Scalar,
        KernelVariant::Neon,
        KernelVariant::Avx2,
        KernelVariant::Avx512,
    ]
    .into_iter()
    .filter(|v| v.is_supported())
    .collect()
}

fn clamp_supported(v: KernelVariant) -> KernelVariant {
    if v.is_supported() {
        v
    } else {
        KernelVariant::Scalar
    }
}

/// Resolve the session default: the `LTS_SIMD` environment variable
/// (`scalar`/`off`, `neon`, `avx2`, `avx512`) clamped to what the CPU
/// supports, else the widest detected variant.
fn env_default() -> KernelVariant {
    match std::env::var("LTS_SIMD").ok().as_deref() {
        Some("scalar") | Some("off") | Some("0") => KernelVariant::Scalar,
        Some("neon") => clamp_supported(KernelVariant::Neon),
        Some("avx2") => clamp_supported(KernelVariant::Avx2),
        Some("avx512") | Some("avx512f") => clamp_supported(KernelVariant::Avx512),
        _ => detected(),
    }
}

static ACTIVE_DEFAULT: OnceLock<KernelVariant> = OnceLock::new();
/// `0` = no override; else `variant.to_u8() + 1`.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// The variant the operators dispatch on right now: a [`ForceVariant`]
/// override if one is live, else the (cached) environment/detection default.
pub fn active() -> KernelVariant {
    match OVERRIDE.load(Ordering::SeqCst) {
        0 => *ACTIVE_DEFAULT.get_or_init(env_default),
        n => KernelVariant::from_u8(n - 1),
    }
}

/// RAII guard that pins [`active`] to a specific variant for A/B bitwise
/// testing. Holds a global lock, so concurrent test threads serialize
/// instead of racing on the override; the request is clamped to supported
/// variants (never dispatches an instruction set the CPU lacks). Dropping
/// the guard restores normal detection.
pub struct ForceVariant {
    _guard: std::sync::MutexGuard<'static, ()>,
}

impl ForceVariant {
    pub fn new(v: KernelVariant) -> ForceVariant {
        let guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        OVERRIDE.store(clamp_supported(v).to_u8() + 1, Ordering::SeqCst);
        ForceVariant { _guard: guard }
    }
}

impl Drop for ForceVariant {
    fn drop(&mut self) {
        OVERRIDE.store(0, Ordering::SeqCst);
    }
}

/// Comma-joined CPU feature flags relevant to kernel dispatch
/// (`avx2`, `avx512f`, `neon`), recorded in bench `host` blocks. Detection
/// only — independent of the `simd` cargo feature and any override.
pub fn cpu_features() -> &'static str {
    static FEATURES: OnceLock<String> = OnceLock::new();
    FEATURES.get_or_init(|| {
        #[allow(unused_mut)]
        let mut f: Vec<&str> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                f.push("avx2");
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                f.push("avx512f");
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                f.push("neon");
            }
        }
        f.join(",")
    })
}

/// Per-lane geometry coefficients of one acoustic batch, precomputed with
/// the exact expressions of [`crate::kernel::scalar_stiffness`] so each lane
/// sees bit-identical constants.
#[derive(Default)]
pub(crate) struct AcousticLanes {
    pub(crate) cx: [f64; MAX_LANES],
    pub(crate) cy: [f64; MAX_LANES],
    pub(crate) cz: [f64; MAX_LANES],
}

/// Per-lane geometry/material coefficients of one elastic batch
/// (`tmu = 2μ`, matching the scalar kernel's `2.0 * mu * …`).
#[derive(Default)]
pub(crate) struct ElasticLanes {
    pub(crate) jac: [f64; MAX_LANES],
    pub(crate) g: [[f64; MAX_LANES]; 3],
    pub(crate) lam: [f64; MAX_LANES],
    pub(crate) mu: [f64; MAX_LANES],
    pub(crate) tmu: [f64; MAX_LANES],
}

/// Generates one ISA-specific kernel module. Every function in the module
/// shares the same dispatch precondition (the CPU supports `$feat`, because
/// the caller reached it through a detection-produced [`KernelVariant`]);
/// interior pointer arithmetic is bounds-guarded by the `debug_assert!`
/// length checks at each kernel's entry, which mirror the slice sizes the
/// engines in `compiled.rs` allocate.
///
/// The kernels are generic over `NP`, the GLL points per axis, so every
/// loop bound and stride is a compile-time constant; [`batch_scalar_stiffness`]
/// and [`batch_elastic_stiffness`] pick the instantiation with one `match`.
#[cfg(any(
    all(feature = "simd", target_arch = "x86_64"),
    all(feature = "simd", target_arch = "aarch64")
))]
macro_rules! simd_kernel_mod {
    ($modname:ident, $feat:literal, $lanes:expr, $vec:ty,
     $load:path, $store:path, $splat:path, $add:path, $mul:path) => {
        pub(crate) mod $modname {
            use crate::simd::{AcousticLanes, ElasticLanes};

            /// Lane width of this instruction set.
            pub(crate) const LANES: usize = $lanes;

            /// Vector load of `LANES` doubles at `s[o..]`.
            ///
            /// # Safety
            /// `o + LANES <= s.len()`, and the CPU supports the module's
            /// instruction set (dispatch precondition).
            #[target_feature(enable = $feat)]
            #[inline]
            unsafe fn ld(s: &[f64], o: usize) -> $vec {
                debug_assert!(o + LANES <= s.len());
                $load(s.as_ptr().add(o))
            }

            /// Vector store of `LANES` doubles to `s[o..]`.
            ///
            /// # Safety
            /// `o + LANES <= s.len()`, and the CPU supports the module's
            /// instruction set (dispatch precondition).
            #[target_feature(enable = $feat)]
            #[inline]
            unsafe fn st(s: &mut [f64], o: usize, v: $vec) {
                debug_assert!(o + LANES <= s.len());
                $store(s.as_mut_ptr().add(o), v)
            }

            /// `D` splatted once per call: `dv[a][m]` holds `d[a·NP + m]`
            /// in every lane.
            ///
            /// # Safety
            /// Dispatch precondition.
            #[target_feature(enable = $feat)]
            #[inline]
            unsafe fn splat_d<const NP: usize>(d: &[f64]) -> [[$vec; NP]; NP] {
                let d = &d[..NP * NP];
                let mut dv = [[$splat(0.0); NP]; NP];
                for a in 0..NP {
                    for m in 0..NP {
                        dv[a][m] = $splat(d[a * NP + m]);
                    }
                }
                dv
            }

            /// SoA offset of node `(a, b, c)`.
            #[inline(always)]
            fn at<const NP: usize>(a: usize, b: usize, c: usize) -> usize {
                (a + NP * (b + NP * c)) * LANES
            }

            /// Batched twin of [`crate::kernel::scalar_stiffness`]: lane `l`
            /// computes `tmp_l = K_e loc_l` for element `l` with the scalar
            /// kernel's exact operation sequence (separate mul + add, no
            /// FMA, every sum from `0.0 +`), on `q·LANES + l` SoA buffers of
            /// length `NP³ · LANES`. `cf` carries per-lane `μJ gᵢ²`
            /// coefficients.
            ///
            /// Each axis runs line by line: a line's `NP` derivatives stay
            /// in registers for the transposed contraction of the same
            /// line, which needs no other. Every node of `tmp` still gets
            /// its x, y and z sums in that order, and the x pass stores
            /// `0.0 + s` — the scalar kernel's zero fill followed by `+=`.
            ///
            /// # Safety
            /// CPU supports the module's instruction set — guaranteed by the
            /// [`crate::simd::KernelVariant`] dispatch in
            /// [`crate::simd::batch_scalar_stiffness`]. Buffer lengths are
            /// `NP³·LANES` (asserted below).
            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn scalar_stiffness_batch<const NP: usize>(
                d: &[f64],
                w3: &[f64],
                cf: &AcousticLanes,
                loc: &[f64],
                tmp: &mut [f64],
            ) {
                let w3 = &w3[..NP * NP * NP];
                debug_assert!(loc.len() >= NP * NP * NP * LANES);
                debug_assert!(tmp.len() >= NP * NP * NP * LANES);
                let dv = splat_d::<NP>(d);
                let zero = $splat(0.0);
                let mut der = [zero; NP];

                // x: lines along a, fixed (b, c)
                let cxv = ld(&cf.cx, 0);
                for c in 0..NP {
                    for b in 0..NP {
                        for a in 0..NP {
                            let mut s = zero;
                            for m in 0..NP {
                                s = $add(s, $mul(dv[a][m], ld(loc, at::<NP>(m, b, c))));
                            }
                            let cw = $mul(cxv, $splat(w3[a + NP * (b + NP * c)]));
                            der[a] = $mul(s, cw);
                        }
                        for i in 0..NP {
                            let mut s = zero;
                            for a in 0..NP {
                                s = $add(s, $mul(dv[a][i], der[a]));
                            }
                            st(tmp, at::<NP>(i, b, c), $add(zero, s));
                        }
                    }
                }

                // y: lines along b, fixed (a, c)
                let cyv = ld(&cf.cy, 0);
                for c in 0..NP {
                    for a in 0..NP {
                        for b in 0..NP {
                            let mut s = zero;
                            for m in 0..NP {
                                s = $add(s, $mul(dv[b][m], ld(loc, at::<NP>(a, m, c))));
                            }
                            let cw = $mul(cyv, $splat(w3[a + NP * (b + NP * c)]));
                            der[b] = $mul(s, cw);
                        }
                        for i in 0..NP {
                            let mut s = zero;
                            for b in 0..NP {
                                s = $add(s, $mul(dv[b][i], der[b]));
                            }
                            let o = at::<NP>(a, i, c);
                            st(tmp, o, $add(ld(tmp, o), s));
                        }
                    }
                }

                // z: lines along c, fixed (a, b)
                let czv = ld(&cf.cz, 0);
                for b in 0..NP {
                    for a in 0..NP {
                        for c in 0..NP {
                            let mut s = zero;
                            for m in 0..NP {
                                s = $add(s, $mul(dv[c][m], ld(loc, at::<NP>(a, b, m))));
                            }
                            let cw = $mul(czv, $splat(w3[a + NP * (b + NP * c)]));
                            der[c] = $mul(s, cw);
                        }
                        for i in 0..NP {
                            let mut s = zero;
                            for c in 0..NP {
                                s = $add(s, $mul(dv[c][i], der[c]));
                            }
                            let o = at::<NP>(a, b, i);
                            st(tmp, o, $add(ld(tmp, o), s));
                        }
                    }
                }
            }

            /// `out[i,b,c] (+)= Σ_a D[a][i] f[a,b,c]` per lane (transposed
            /// ξ-contraction on SoA buffers). With `INIT` the sum is stored
            /// as `0.0 + s`, the scalar path's zero fill followed by `+=`.
            ///
            /// # Safety
            /// Dispatch precondition; `f`/`out` hold `NP³·LANES` doubles.
            #[target_feature(enable = $feat)]
            #[inline]
            unsafe fn deriv_x_t_add<const NP: usize, const INIT: bool>(
                dv: &[[$vec; NP]; NP],
                f: &[f64],
                out: &mut [f64],
            ) {
                for c in 0..NP {
                    for b in 0..NP {
                        for i in 0..NP {
                            let mut s = $splat(0.0);
                            for a in 0..NP {
                                s = $add(s, $mul(dv[a][i], ld(f, at::<NP>(a, b, c))));
                            }
                            let o = at::<NP>(i, b, c);
                            let prev = if INIT { $splat(0.0) } else { ld(out, o) };
                            st(out, o, $add(prev, s));
                        }
                    }
                }
            }

            /// Transposed η-contraction, per lane (`INIT` as for
            /// [`deriv_x_t_add`]).
            ///
            /// # Safety
            /// Dispatch precondition; `f`/`out` hold `NP³·LANES` doubles.
            #[target_feature(enable = $feat)]
            #[inline]
            unsafe fn deriv_y_t_add<const NP: usize, const INIT: bool>(
                dv: &[[$vec; NP]; NP],
                f: &[f64],
                out: &mut [f64],
            ) {
                for c in 0..NP {
                    for i in 0..NP {
                        for a in 0..NP {
                            let mut s = $splat(0.0);
                            for b in 0..NP {
                                s = $add(s, $mul(dv[b][i], ld(f, at::<NP>(a, b, c))));
                            }
                            let o = at::<NP>(a, i, c);
                            let prev = if INIT { $splat(0.0) } else { ld(out, o) };
                            st(out, o, $add(prev, s));
                        }
                    }
                }
            }

            /// Transposed ζ-contraction, per lane (`INIT` as for
            /// [`deriv_x_t_add`]).
            ///
            /// # Safety
            /// Dispatch precondition; `f`/`out` hold `NP³·LANES` doubles.
            #[target_feature(enable = $feat)]
            #[inline]
            unsafe fn deriv_z_t_add<const NP: usize, const INIT: bool>(
                dv: &[[$vec; NP]; NP],
                f: &[f64],
                out: &mut [f64],
            ) {
                for i in 0..NP {
                    for b in 0..NP {
                        for a in 0..NP {
                            let mut s = $splat(0.0);
                            for c in 0..NP {
                                s = $add(s, $mul(dv[c][i], ld(f, at::<NP>(a, b, c))));
                            }
                            let o = at::<NP>(a, b, i);
                            let prev = if INIT { $splat(0.0) } else { ld(out, o) };
                            st(out, o, $add(prev, s));
                        }
                    }
                }
            }

            /// Batched twin of [`crate::elastic::elastic_stiffness`]: lane
            /// `l` runs the scalar elastic kernel's exact operation sequence
            /// for element `l`. `u`/`out` are component-major
            /// (`comp·NP³·LANES + q·LANES + l`), `grad` is `(3·comp+axis)`-
            /// major. The gradient scaling by `g[axis]` is folded into the
            /// derivative store (`(Σ…)·g`, the same product the scalar
            /// kernel's separate scale pass computes). The first
            /// contraction into each component of `out` (the diagonal
            /// stress) stores `0.0 + s`, the scalar zero fill followed by
            /// `+=`.
            ///
            /// # Safety
            /// CPU supports the module's instruction set — guaranteed by the
            /// [`crate::simd::KernelVariant`] dispatch in
            /// [`crate::simd::batch_elastic_stiffness`]. Buffer lengths are
            /// asserted below.
            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn elastic_stiffness_batch<const NP: usize>(
                d: &[f64],
                w3: &[f64],
                cf: &ElasticLanes,
                u: &[f64],
                grad: &mut [f64],
                flux: &mut [f64],
                out: &mut [f64],
            ) {
                let npe = NP * NP * NP;
                let n = npe * LANES;
                let w3 = &w3[..npe];
                debug_assert!(u.len() >= 3 * n);
                debug_assert!(grad.len() >= 9 * n);
                debug_assert!(flux.len() >= n);
                debug_assert!(out.len() >= 3 * n);
                let dv = splat_d::<NP>(d);
                let jacv = ld(&cf.jac, 0);
                let gv = [ld(&cf.g[0], 0), ld(&cf.g[1], 0), ld(&cf.g[2], 0)];
                let lamv = ld(&cf.lam, 0);
                let muv = ld(&cf.mu, 0);
                let tmuv = ld(&cf.tmu, 0);

                // gradients G[comp][axis] = g[axis] · D_axis u_comp
                for comp in 0..3 {
                    let ub = comp * n;
                    let gx = (3 * comp) * n;
                    let gy = gx + n;
                    let gz = gy + n;
                    for c in 0..NP {
                        for b in 0..NP {
                            for a in 0..NP {
                                let mut s = $splat(0.0);
                                for m in 0..NP {
                                    s = $add(s, $mul(dv[a][m], ld(u, ub + at::<NP>(m, b, c))));
                                }
                                st(grad, gx + at::<NP>(a, b, c), $mul(s, gv[0]));
                            }
                        }
                    }
                    for c in 0..NP {
                        for b in 0..NP {
                            for a in 0..NP {
                                let mut s = $splat(0.0);
                                for m in 0..NP {
                                    s = $add(s, $mul(dv[b][m], ld(u, ub + at::<NP>(a, m, c))));
                                }
                                st(grad, gy + at::<NP>(a, b, c), $mul(s, gv[1]));
                            }
                        }
                    }
                    for c in 0..NP {
                        for b in 0..NP {
                            for a in 0..NP {
                                let mut s = $splat(0.0);
                                for m in 0..NP {
                                    s = $add(s, $mul(dv[c][m], ld(u, ub + at::<NP>(a, b, m))));
                                }
                                st(grad, gz + at::<NP>(a, b, c), $mul(s, gv[2]));
                            }
                        }
                    }
                }

                // diagonal stresses: σ_ii = λ tr + 2μ G[i][i]
                for comp in 0..3 {
                    for q in 0..npe {
                        let o = q * LANES;
                        let tr = $add($add(ld(grad, o), ld(grad, 4 * n + o)), ld(grad, 8 * n + o));
                        let sii = $add(
                            $mul(lamv, tr),
                            $mul(tmuv, ld(grad, (3 * comp + comp) * n + o)),
                        );
                        let wq = $mul($splat(w3[q]), jacv);
                        st(flux, o, $mul($mul(wq, gv[comp]), sii));
                    }
                    let oc = &mut out[comp * n..(comp + 1) * n];
                    match comp {
                        0 => deriv_x_t_add::<NP, true>(&dv, flux, oc),
                        1 => deriv_y_t_add::<NP, true>(&dv, flux, oc),
                        _ => deriv_z_t_add::<NP, true>(&dv, flux, oc),
                    }
                }
                // shear stresses σ_ij = μ (G[i][j] + G[j][i]), i ≠ j
                for (i, j) in [(0usize, 1usize), (0, 2), (1, 2)] {
                    for q in 0..npe {
                        let o = q * LANES;
                        let sij = $mul(
                            muv,
                            $add(ld(grad, (3 * i + j) * n + o), ld(grad, (3 * j + i) * n + o)),
                        );
                        let wq = $mul($splat(w3[q]), jacv);
                        st(flux, o, $mul($mul(wq, gv[j]), sij));
                    }
                    let oi = &mut out[i * n..(i + 1) * n];
                    match j {
                        1 => deriv_y_t_add::<NP, false>(&dv, flux, oi),
                        _ => deriv_z_t_add::<NP, false>(&dv, flux, oi),
                    }
                    for q in 0..npe {
                        let o = q * LANES;
                        let sij = $mul(
                            muv,
                            $add(ld(grad, (3 * i + j) * n + o), ld(grad, (3 * j + i) * n + o)),
                        );
                        let wq = $mul($splat(w3[q]), jacv);
                        st(flux, o, $mul($mul(wq, gv[i]), sij));
                    }
                    let oj = &mut out[j * n..(j + 1) * n];
                    match i {
                        0 => deriv_x_t_add::<NP, false>(&dv, flux, oj),
                        _ => deriv_y_t_add::<NP, false>(&dv, flux, oj),
                    }
                }
            }
        }
    };
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
simd_kernel_mod!(
    avx2,
    "avx2",
    4,
    core::arch::x86_64::__m256d,
    core::arch::x86_64::_mm256_loadu_pd,
    core::arch::x86_64::_mm256_storeu_pd,
    core::arch::x86_64::_mm256_set1_pd,
    core::arch::x86_64::_mm256_add_pd,
    core::arch::x86_64::_mm256_mul_pd
);

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
simd_kernel_mod!(
    avx512,
    "avx512f",
    8,
    core::arch::x86_64::__m512d,
    core::arch::x86_64::_mm512_loadu_pd,
    core::arch::x86_64::_mm512_storeu_pd,
    core::arch::x86_64::_mm512_set1_pd,
    core::arch::x86_64::_mm512_add_pd,
    core::arch::x86_64::_mm512_mul_pd
);

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
simd_kernel_mod!(
    neon,
    "neon",
    2,
    core::arch::aarch64::float64x2_t,
    core::arch::aarch64::vld1q_f64,
    core::arch::aarch64::vst1q_f64,
    core::arch::aarch64::vdupq_n_f64,
    core::arch::aarch64::vaddq_f64,
    core::arch::aarch64::vmulq_f64
);

/// Calls `$module::$kernel::<NP>($args)` for the runtime point count
/// `$np`, one arm per order [`crate::gll::GllBasis::new`] accepts
/// (`NP = order + 1`, 2..=17); any other `$np` yields `false`.
#[cfg(any(
    all(feature = "simd", target_arch = "x86_64"),
    all(feature = "simd", target_arch = "aarch64")
))]
macro_rules! by_np {
    ($np:expr, $module:ident :: $kernel:ident ($($arg:expr),*)) => {
        match $np {
            2 => { $module::$kernel::<2>($($arg),*); true }
            3 => { $module::$kernel::<3>($($arg),*); true }
            4 => { $module::$kernel::<4>($($arg),*); true }
            5 => { $module::$kernel::<5>($($arg),*); true }
            6 => { $module::$kernel::<6>($($arg),*); true }
            7 => { $module::$kernel::<7>($($arg),*); true }
            8 => { $module::$kernel::<8>($($arg),*); true }
            9 => { $module::$kernel::<9>($($arg),*); true }
            10 => { $module::$kernel::<10>($($arg),*); true }
            11 => { $module::$kernel::<11>($($arg),*); true }
            12 => { $module::$kernel::<12>($($arg),*); true }
            13 => { $module::$kernel::<13>($($arg),*); true }
            14 => { $module::$kernel::<14>($($arg),*); true }
            15 => { $module::$kernel::<15>($($arg),*); true }
            16 => { $module::$kernel::<16>($($arg),*); true }
            17 => { $module::$kernel::<17>($($arg),*); true }
            _ => false,
        }
    };
}

/// The width a compiled entry runs `np`-point elements at under a supported
/// variant `v`: `v.lanes()` where `batch_*_stiffness` instantiate `np`
/// (orders 1–16), else 1, which runs the per-element scalar kernel.
pub(crate) fn batch_lanes(v: KernelVariant, np: usize) -> usize {
    if (2..=17).contains(&np) {
        v.lanes()
    } else {
        1
    }
}

/// Dispatch one acoustic batch of `np`-point elements to `v`'s kernel.
/// Returns `false` when `v` has no batched kernel for `np` (exactly where
/// [`batch_lanes`] is 1).
#[inline]
#[must_use]
pub(crate) fn batch_scalar_stiffness(
    v: KernelVariant,
    np: usize,
    d: &[f64],
    w3: &[f64],
    cf: &AcousticLanes,
    loc: &[f64],
    tmp: &mut [f64],
) -> bool {
    match v {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelVariant::Avx2 => {
            // SAFETY: `v == Avx2` only arises from runtime feature detection
            // or a support-clamped override, so the CPU has AVX2 — the
            // kernel's dispatch precondition.
            unsafe { by_np!(np, avx2::scalar_stiffness_batch(d, w3, cf, loc, tmp)) }
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelVariant::Avx512 => {
            // SAFETY: `v == Avx512` only arises from runtime feature
            // detection or a support-clamped override, so the CPU has
            // AVX-512F — the kernel's dispatch precondition.
            unsafe { by_np!(np, avx512::scalar_stiffness_batch(d, w3, cf, loc, tmp)) }
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelVariant::Neon => {
            // SAFETY: `v == Neon` only arises from runtime feature detection
            // or a support-clamped override, so the CPU has NEON — the
            // kernel's dispatch precondition.
            unsafe { by_np!(np, neon::scalar_stiffness_batch(d, w3, cf, loc, tmp)) }
        }
        _ => {
            let _ = (np, d, w3, cf, loc, tmp);
            false
        }
    }
}

/// Dispatch one elastic batch of `np`-point elements to `v`'s kernel;
/// `false` = no batched kernel for `v` and `np` (where [`batch_lanes`] is 1).
#[inline]
#[must_use]
#[allow(clippy::too_many_arguments)]
pub(crate) fn batch_elastic_stiffness(
    v: KernelVariant,
    np: usize,
    d: &[f64],
    w3: &[f64],
    cf: &ElasticLanes,
    u: &[f64],
    grad: &mut [f64],
    flux: &mut [f64],
    out: &mut [f64],
) -> bool {
    match v {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelVariant::Avx2 => {
            // SAFETY: `v == Avx2` only arises from runtime feature detection
            // or a support-clamped override, so the CPU has AVX2 — the
            // kernel's dispatch precondition.
            unsafe {
                by_np!(
                    np,
                    avx2::elastic_stiffness_batch(d, w3, cf, u, grad, flux, out)
                )
            }
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelVariant::Avx512 => {
            // SAFETY: `v == Avx512` only arises from runtime feature
            // detection or a support-clamped override, so the CPU has
            // AVX-512F — the kernel's dispatch precondition.
            unsafe {
                by_np!(
                    np,
                    avx512::elastic_stiffness_batch(d, w3, cf, u, grad, flux, out)
                )
            }
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelVariant::Neon => {
            // SAFETY: `v == Neon` only arises from runtime feature detection
            // or a support-clamped override, so the CPU has NEON — the
            // kernel's dispatch precondition.
            unsafe {
                by_np!(
                    np,
                    neon::elastic_stiffness_batch(d, w3, cf, u, grad, flux, out)
                )
            }
        }
        _ => {
            let _ = (np, d, w3, cf, u, grad, flux, out);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::EngineScratch;
    use crate::gll::GllBasis;

    #[test]
    fn lanes_and_names_are_consistent() {
        for v in [
            KernelVariant::Scalar,
            KernelVariant::Neon,
            KernelVariant::Avx2,
            KernelVariant::Avx512,
        ] {
            assert_eq!(KernelVariant::from_u8(v.to_u8()), v);
            assert!(v.lanes().is_power_of_two());
            assert!(!v.name().is_empty());
        }
        assert_eq!(KernelVariant::Scalar.lanes(), 1);
        assert!(detected().is_supported());
        assert!(supported_variants().contains(&KernelVariant::Scalar));
    }

    #[test]
    fn force_variant_overrides_and_restores() {
        let base = active();
        {
            let _g = ForceVariant::new(KernelVariant::Scalar);
            assert_eq!(active(), KernelVariant::Scalar);
        }
        assert_eq!(active(), base);
    }

    /// Deterministic pseudo-random fill, seeded.
    fn fill(seed: u64, buf: &mut [f64]) {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for v in buf.iter_mut() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((x >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
        }
    }

    /// The field of lane `l` of a bitwise test: lane 0 is all `-0.0`, lane
    /// 1 is `±0.0` with seeded signs, and the other lanes are seeded values
    /// with a `±0.0` at every 7th entry. The signed zeros catch a kernel
    /// whose sums do not start from `0.0 +` and whose first pass into an
    /// output stores them bare; either alone leaves every bit as it is, as
    /// `x + ±0.0 == x` and a sum from `0.0 +` is never `-0.0`.
    fn lane_field(seed: u64, l: usize, buf: &mut [f64]) {
        fill(seed + l as u64, buf);
        for (i, v) in buf.iter_mut().enumerate() {
            let zero = if *v < 0.0 { -0.0 } else { 0.0 };
            *v = match l {
                0 => -0.0,
                1 => zero,
                _ if i % 7 == 3 => zero,
                _ => *v,
            };
        }
    }

    #[test]
    fn acoustic_batch_is_bitwise_equal_to_scalar() {
        for v in supported_variants() {
            let w = v.lanes();
            if w == 1 {
                continue;
            }
            for order in 1..=16usize {
                let basis = GllBasis::new(order);
                let np = basis.n_points();
                let npe = np * np * np;
                // per-lane geometry and fields
                let geoms: Vec<(f64, f64, f64, f64)> = (0..w)
                    .map(|l| {
                        (
                            1.0 + 0.25 * l as f64,
                            0.8 + 0.1 * l as f64,
                            1.3 - 0.05 * l as f64,
                            1.5 + 0.5 * l as f64,
                        )
                    })
                    .collect();
                let mut lanes_loc = vec![0.0; npe * w];
                let mut scalar_loc = vec![vec![0.0; npe]; w];
                for (l, sl) in scalar_loc.iter_mut().enumerate() {
                    lane_field(41 * order as u64, l, sl);
                    for q in 0..npe {
                        lanes_loc[q * w + l] = sl[q];
                    }
                }
                let mut cf = AcousticLanes::default();
                for (l, &(hx, hy, hz, mu)) in geoms.iter().enumerate() {
                    let jac = 0.125 * hx * hy * hz;
                    cf.cx[l] = mu * jac * (2.0 / hx) * (2.0 / hx);
                    cf.cy[l] = mu * jac * (2.0 / hy) * (2.0 / hy);
                    cf.cz[l] = mu * jac * (2.0 / hz) * (2.0 / hz);
                }
                // junk in the output: the kernel must initialise all of it
                let mut vtmp = vec![0.0; npe * w];
                fill(7 * order as u64, &mut vtmp);
                assert!(batch_scalar_stiffness(
                    v,
                    np,
                    &basis.d,
                    &basis.wgll3,
                    &cf,
                    &lanes_loc,
                    &mut vtmp,
                ));
                for (l, &(hx, hy, hz, mu)) in geoms.iter().enumerate() {
                    let mut tmp = vec![0.0; npe];
                    let mut der = vec![0.0; npe];
                    crate::kernel::scalar_stiffness(
                        &basis,
                        hx,
                        hy,
                        hz,
                        mu,
                        &scalar_loc[l],
                        &mut tmp,
                        &mut der,
                    );
                    for q in 0..npe {
                        assert_eq!(
                            tmp[q].to_bits(),
                            vtmp[q * w + l].to_bits(),
                            "{v:?} order {order} lane {l} node {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_lanes_mirror_the_kernel_dispatch() {
        for v in supported_variants() {
            for np in [1usize, 2, 5, 17, 18] {
                let (d, w3) = if (2..=17).contains(&np) {
                    let basis = GllBasis::new(np - 1);
                    (basis.d, basis.wgll3)
                } else {
                    (Vec::new(), Vec::new())
                };
                let n = np.pow(3) * v.lanes();
                let z = |k: usize| vec![0.0; k * n];
                let (mut a, mut b, mut c, mut o) = (z(1), z(9), z(1), z(3));
                let acoustic =
                    batch_scalar_stiffness(v, np, &d, &w3, &Default::default(), &z(1), &mut a);
                let elastic = batch_elastic_stiffness(
                    v,
                    np,
                    &d,
                    &w3,
                    &Default::default(),
                    &z(3),
                    &mut b,
                    &mut c,
                    &mut o,
                );
                let want = if acoustic { v.lanes() } else { 1 };
                assert_eq!(acoustic, elastic, "{v:?} np {np}");
                assert_eq!(batch_lanes(v, np), want, "{v:?} np {np}");
            }
        }
    }

    #[test]
    fn elastic_batch_is_bitwise_equal_to_scalar() {
        for v in supported_variants() {
            let w = v.lanes();
            if w == 1 {
                continue;
            }
            for order in 1..=16usize {
                let basis = GllBasis::new(order);
                let np = basis.n_points();
                let npe = np * np * np;
                let n = npe * w;
                let geoms: Vec<(f64, f64, f64, f64, f64)> = (0..w)
                    .map(|l| {
                        (
                            1.0 + 0.2 * l as f64,
                            0.9 + 0.15 * l as f64,
                            1.2 - 0.04 * l as f64,
                            1.1 + 0.3 * l as f64,
                            0.7 + 0.2 * l as f64,
                        )
                    })
                    .collect();
                let mut vu = vec![0.0; 3 * n];
                let mut scalar_u = vec![vec![0.0; 3 * npe]; w];
                for (l, su) in scalar_u.iter_mut().enumerate() {
                    lane_field(97 * order as u64, l, su);
                    for comp in 0..3 {
                        for q in 0..npe {
                            vu[comp * n + q * w + l] = su[comp * npe + q];
                        }
                    }
                }
                let mut cf = ElasticLanes::default();
                for (l, &(hx, hy, hz, lam, mu)) in geoms.iter().enumerate() {
                    cf.jac[l] = 0.125 * hx * hy * hz;
                    cf.g[0][l] = 2.0 / hx;
                    cf.g[1][l] = 2.0 / hy;
                    cf.g[2][l] = 2.0 / hz;
                    cf.lam[l] = lam;
                    cf.mu[l] = mu;
                    cf.tmu[l] = 2.0 * mu;
                }
                // junk in the scratch and output: the kernel must
                // initialise all of it
                let mut vgrad = vec![0.0; 9 * n];
                let mut vflux = vec![0.0; n];
                let mut vout = vec![0.0; 3 * n];
                fill(5 * order as u64, &mut vgrad);
                fill(11 * order as u64, &mut vflux);
                fill(13 * order as u64, &mut vout);
                assert!(batch_elastic_stiffness(
                    v,
                    np,
                    &basis.d,
                    &basis.wgll3,
                    &cf,
                    &vu,
                    &mut vgrad,
                    &mut vflux,
                    &mut vout,
                ));
                for (l, &(hx, hy, hz, lam, mu)) in geoms.iter().enumerate() {
                    let mut s = crate::elastic::Scratch::new(npe);
                    for comp in 0..3 {
                        s.u[comp].copy_from_slice(&scalar_u[l][comp * npe..(comp + 1) * npe]);
                    }
                    crate::elastic::elastic_stiffness(&basis, hx, hy, hz, lam, mu, &mut s);
                    for comp in 0..3 {
                        for q in 0..npe {
                            assert_eq!(
                                s.out[comp][q].to_bits(),
                                vout[comp * n + q * w + l].to_bits(),
                                "{v:?} order {order} lane {l} comp {comp} node {q}"
                            );
                        }
                    }
                }
            }
        }
    }
}
