//! Receivers, seismograms and wavefield snapshots — the observables a
//! seismologist actually extracts from a run (SPECFEM3D writes the same:
//! per-receiver traces and volume snapshots).

use crate::dofmap::DofMap;
use lts_mesh::HexMesh;
use std::io::Write;

/// A named receiver sampling one DOF every global step.
#[derive(Debug, Clone)]
pub struct Receiver {
    pub name: String,
    pub(crate) dof: u32,
}

/// A set of receivers accumulating traces.
#[derive(Debug, Clone, Default)]
pub struct SeismogramRecorder {
    pub receivers: Vec<Receiver>,
    /// `traces[r][step]`.
    pub traces: Vec<Vec<f64>>,
    /// Sample times.
    pub(crate) times: Vec<f64>,
}

impl SeismogramRecorder {
    pub fn new(receivers: Vec<Receiver>) -> Self {
        let n = receivers.len();
        SeismogramRecorder {
            receivers,
            traces: vec![Vec::new(); n],
            times: Vec::new(),
        }
    }

    /// Receiver at the GLL node nearest to a physical location (scalar
    /// field: `component = 0`, `dofs_per_node = 1`; elastic: 0..3, 3).
    #[allow(clippy::too_many_arguments)]
    pub fn add_at(
        &mut self,
        name: &str,
        mesh: &HexMesh,
        dofmap: &DofMap,
        gll_points: &[f64],
        (x, y, z): (f64, f64, f64),
        component: usize,
        dofs_per_node: usize,
    ) {
        assert!(component < dofs_per_node);
        let node = dofmap.nearest_node(mesh, x, y, z, gll_points);
        self.receivers.push(Receiver {
            name: name.to_string(),
            dof: node * dofs_per_node as u32 + component as u32,
        });
        self.traces.push(vec![f64::NAN; self.times.len()]);
    }

    /// Sample all receivers from the current field.
    pub fn record(&mut self, t: f64, u: &[f64]) {
        self.times.push(t);
        for (r, trace) in self.receivers.iter().zip(self.traces.iter_mut()) {
            trace.push(u[r.dof as usize]);
        }
    }

    /// Write all traces as CSV (`t, name1, name2, …`).
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        write!(w, "t")?;
        for r in &self.receivers {
            write!(w, ",{}", r.name)?;
        }
        writeln!(w)?;
        for (i, t) in self.times.iter().enumerate() {
            write!(w, "{t}")?;
            for trace in &self.traces {
                write!(w, ",{}", trace[i])?;
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Peak absolute amplitude per receiver.
    pub fn peaks(&self) -> Vec<f64> {
        self.traces
            .iter()
            .map(|t| t.iter().fold(0.0f64, |m, &x| m.max(x.abs())))
            .collect()
    }
}

/// Extract a horizontal (`z = iz`) slice of a scalar field on the global
/// GLL grid, as a row-major `gy × gx` matrix.
pub fn slice_z(
    dofmap: &DofMap,
    u: &[f64],
    iz: usize,
    dofs_per_node: usize,
    component: usize,
) -> Vec<f64> {
    assert!(iz < dofmap.gz);
    let mut out = Vec::with_capacity(dofmap.gx * dofmap.gy);
    for iy in 0..dofmap.gy {
        for ix in 0..dofmap.gx {
            let g = dofmap.global_node(ix, iy, iz) as usize;
            out.push(u[g * dofs_per_node + component]);
        }
    }
    out
}

/// Write a scalar field slice as a binary PGM image (symmetric grayscale
/// around zero), the cheapest portable wavefield snapshot format.
pub fn write_pgm<W: Write>(
    mut w: W,
    data: &[f64],
    width: usize,
    height: usize,
) -> std::io::Result<()> {
    assert_eq!(data.len(), width * height);
    let peak = data.iter().fold(1e-300f64, |m, &x| m.max(x.abs()));
    writeln!(w, "P5\n{width} {height}\n255")?;
    let bytes: Vec<u8> = data
        .iter()
        .map(|&x| (127.0 + 127.0 * (x / peak)).clamp(0.0, 255.0) as u8)
        .collect();
    w.write_all(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gll::GllBasis;

    fn setup() -> (HexMesh, DofMap, GllBasis) {
        let m = HexMesh::uniform(3, 3, 2, 1.0, 1.0);
        let d = DofMap::new(&m, 2);
        let b = GllBasis::new(2);
        (m, d, b)
    }

    #[test]
    fn recorder_samples_named_traces() {
        let (m, d, b) = setup();
        let mut rec = SeismogramRecorder::new(vec![]);
        rec.add_at("sta1", &m, &d, &b.points, (0.0, 0.0, 0.0), 0, 1);
        rec.add_at("sta2", &m, &d, &b.points, (3.0, 3.0, 2.0), 0, 1);
        let n = d.n_nodes();
        let mut u = vec![0.0; n];
        u[rec.receivers[0].dof as usize] = 2.5;
        rec.record(0.0, &u);
        u[rec.receivers[1].dof as usize] = -1.5;
        rec.record(0.1, &u);
        assert_eq!(rec.times.len(), 2);
        assert_eq!(rec.traces[0], vec![2.5, 2.5]);
        assert_eq!(rec.traces[1], vec![0.0, -1.5]);
        assert_eq!(rec.peaks(), vec![2.5, 1.5]);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let (m, d, b) = setup();
        let mut rec = SeismogramRecorder::new(vec![]);
        rec.add_at("a", &m, &d, &b.points, (1.0, 1.0, 1.0), 0, 1);
        rec.record(0.0, &vec![0.25; d.n_nodes()]);
        let mut buf = Vec::new();
        rec.write_csv(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("t,a\n"));
        assert!(s.contains("0,0.25"));
    }

    #[test]
    fn elastic_component_offsets() {
        let (m, d, b) = setup();
        let mut rec = SeismogramRecorder::new(vec![]);
        rec.add_at("z", &m, &d, &b.points, (1.0, 1.0, 2.0), 2, 3);
        assert_eq!(rec.receivers[0].dof % 3, 2);
    }

    #[test]
    fn slice_and_pgm() {
        let (_, d, _) = setup();
        let n = d.n_nodes();
        let u: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let s = slice_z(&d, &u, 0, 1, 0);
        assert_eq!(s.len(), d.gx * d.gy);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[1], 1.0);
        let mut buf = Vec::new();
        write_pgm(&mut buf, &s, d.gx, d.gy).unwrap();
        assert!(buf.starts_with(b"P5\n"));
        assert_eq!(
            buf.len(),
            format!("P5\n{} {}\n255\n", d.gx, d.gy).len() + d.gx * d.gy
        );
    }
}
